// Synthetic netlist generator.
//
// The MCNC benchmark netlists the paper uses are not redistributable, so the
// evaluation runs on seeded synthetic circuits calibrated to the published
// characteristics (Table II: logic-block count, array size, and — via the
// locality parameters — routed channel-width demand). The per-circuit
// calibration is mcnc_gen_params (netlist/mcnc.h).
//
// Structure: LUTs are arranged on a virtual sqrt(n) x sqrt(n) grid that the
// generator alone sees; each LUT draws its fan-in from blocks within a small
// radius with probability `p_local`, otherwise uniformly. Lower p_local /
// larger radius produce longer routed wires and higher minimum channel
// width, mimicking denser MCNC circuits.
#pragma once

#include <cstdint>

#include "netlist/netlist.h"

namespace vbs {

struct GenParams {
  int n_lut = 100;
  int n_pi = 10;
  int n_po = 10;
  /// Mean LUT fan-in (clamped to [1, K]); MCNC 6-LUT mappings average ~3-4.
  double mean_fanin = 3.6;
  int lut_k = 6;
  /// Probability that a fan-in source is drawn from the local radius.
  double p_local = 0.85;
  /// Neighbourhood radius as a fraction of the virtual grid side.
  double radius_frac = 0.08;
  /// Non-local connections draw their length from an exponential profile
  /// with this mean (as a fraction of the grid side) — the Rent-like
  /// wirelength tail of real circuits. A small uniform remainder
  /// (p_uniform) keeps truly chip-crossing nets and primary-input fan-in.
  double global_scale_frac = 0.22;
  double p_uniform = 0.04;
  /// Fraction of LUTs with a registered output.
  double ff_frac = 0.3;
  std::uint64_t seed = 1;
  /// When > 0, a Rent exponent that OVERRIDES the three locality knobs
  /// (p_local, global_scale_frac, p_uniform) via apply_rent_exponent()
  /// inside generate_netlist. Typical FPGA-mapped circuits sit in
  /// [0.5, 0.75]; higher exponents mean less locality and a fatter
  /// wirelength tail, i.e. higher routed channel-width demand.
  double rent_exponent = 0.0;
};

/// Maps a Rent exponent r (clamped to [0.4, 0.9]) onto the generator's
/// three locality knobs. The mapping is a calibration, not a derivation:
/// r = 0.5 lands near the repo's default "easy" locality mix, and each
/// +0.1 of r sheds local bias and feeds the exponential/uniform tails so
/// that routed MCW climbs the way Rent's rule predicts for real circuits.
/// Exposed (rather than folded into generate_netlist) so tests can pin
/// the mapping and tools can report the effective knob values.
void apply_rent_exponent(GenParams& params, double r);

/// Generates a connected, validated netlist. Deterministic in the params.
Netlist generate_netlist(const GenParams& params);

}  // namespace vbs
