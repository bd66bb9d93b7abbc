// Stage-graph flow API: the paper's toolchain (Fig. 3) as a first-class,
// resumable pipeline instead of one opaque run_flow call.
//
//   netlist --pack--> PackedDesign --place--> Placement
//           --route--> RoutingResult --encode--> VBS stream
//
// Each stage produces a typed, serializable artifact (flow/artifact_io.h).
// A FlowPipeline runs stages lazily (`run_to`, or just touch an accessor),
// can persist any completed prefix to a checkpoint directory
// (`save_checkpoint`) and reload it later (`resume_from`), and can
// invalidate a suffix and run it again (`rerun_from`) — re-route on a
// frozen placement, re-encode on frozen routing. Both engines are
// deterministic, so a resumed remainder is byte-identical to the
// uninterrupted run for the same seed and options; artifact fingerprints
// enforce that a checkpoint is only ever resumed
// against the netlist/options it was produced from.
//
// Checkpoint directory layout (see src/flow/README.md):
//   netlist.netl   the input netlist (.netl text format)
//   flow.meta      grid + FlowOptions + EncodeOptions   (vbs.artifact.v1)
//   pack.art / place.art / route.art / encode.art       (one per completed
//                                                        stage, same format)
//
// Per-stage observers receive a StageReport after every stage run — the
// pipeline-level replacement for ad-hoc bench instrumentation.
#pragma once

#include <array>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "flow/flow.h"
#include "vbs/vbs_format.h"

namespace vbs {

/// The four stages of the flow graph, in dependency order.
enum class Stage : std::uint8_t {
  kPack = 0,
  kPlace = 1,
  kRoute = 2,
  kEncode = 3,
};
inline constexpr int kNumStages = 4;

const char* stage_name(Stage s);

/// What an observer sees after a stage completes.
struct StageReport {
  Stage stage = Stage::kPack;
  double seconds = 0.0;      ///< wall time of this stage run
  bool rerun = false;        ///< stage had run before and was invalidated
};

class FlowPipeline {
 public:
  /// `opts.place.seed == 0` inherits the flow seed exactly like run_flow.
  FlowPipeline(Netlist nl, int grid_w, int grid_h, FlowOptions opts = {},
               EncodeOptions encode_opts = {});

  /// Observer invoked after every stage run (not for artifacts loaded from
  /// a checkpoint). The pipeline reference is valid for the callback's
  /// duration only.
  using Observer = std::function<void(const FlowPipeline&, const StageReport&)>;
  void add_observer(Observer cb) { observers_.push_back(std::move(cb)); }

  bool completed(Stage s) const { return done_[static_cast<int>(s)]; }

  /// Runs every incomplete stage up to and including `s`, in order.
  /// The encode stage throws std::runtime_error if routing failed; the
  /// route stage itself completes with RoutingResult::success == false.
  void run_to(Stage s);

  /// Drops the artifacts of `s` and every downstream stage.
  void invalidate_from(Stage s);

  /// Invalidates `s`..end, then reruns up to the previously highest
  /// completed stage (at least `s`): rerun_from(kRoute) re-routes the
  /// frozen placement and, if encode had run, re-encodes.
  void rerun_from(Stage s);

  // --- inputs ---------------------------------------------------------------
  const Netlist& netlist() const { return nl_; }
  int grid_w() const { return grid_w_; }
  int grid_h() const { return grid_h_; }
  const FlowOptions& options() const { return opts_; }
  const EncodeOptions& encode_options() const { return encode_opts_; }

  /// Replaces the encoder configuration, invalidating the encode stage.
  void set_encode_options(const EncodeOptions& eopts);

  // --- artifacts (accessors run the producing stage on demand) --------------
  const PackedDesign& packed();
  const Placement& placement();
  const PlaceStats& place_stats();
  /// The routing fabric (built for the route stage; also available after a
  /// checkpoint resume for downstream consumers).
  const Fabric& fabric();
  const RouteRequest& route_request();
  const RoutingResult& routing();
  const VbsImage& vbs_image();
  const BitVector& vbs_stream();
  const EncodeStats& encode_stats();

  // --- checkpointing --------------------------------------------------------
  /// Writes the netlist, the flow description and every completed stage
  /// artifact up to `up_to` into `dir` (created if needed); stale artifact
  /// files of incomplete or excluded stages are removed. Artifacts carry a
  /// fingerprint chaining the netlist, grid and all result-relevant
  /// options, and a content hash over the payload.
  void save_checkpoint(const std::string& dir,
                       Stage up_to = Stage::kEncode) const;

  /// Reloads a checkpoint directory: netlist and options come from the
  /// checkpoint itself; completed stage artifacts are loaded in order until
  /// the first missing file or the first stage after pack whose
  /// fingerprint no longer matches (that stage and the later ones rerun
  /// when next needed). Throws VbsError{kBadContainer} on a corrupted or
  /// version-mismatched artifact and on a pack fingerprint mismatch (a
  /// foreign checkpoint), and std::runtime_error on a malformed directory.
  static FlowPipeline resume_from(const std::string& dir);

  /// Moves the artifacts out into the legacy FlowResult shape (the
  /// run_flow compatibility path). Requires the route stage.
  FlowResult take_flow_result() &&;

 private:
  void run_stage(Stage s);
  void ensure_fabric();
  /// FNV-1a over the netlist's .netl text, computed on first use (only
  /// checkpointing needs it; run_flow never pays for it).
  std::uint64_t netlist_hash() const;
  std::uint64_t base_fingerprint() const;
  std::uint64_t stage_fingerprint(Stage s) const;
  BitVector serialize_meta() const;
  /// The placer options with the flow seed inherited.
  PlaceOptions resolved_place_options() const;

  Netlist nl_;
  int grid_w_ = 0;
  int grid_h_ = 0;
  FlowOptions opts_;
  EncodeOptions encode_opts_;
  mutable std::optional<std::uint64_t> netlist_hash_;

  std::array<bool, kNumStages> done_{};
  std::array<bool, kNumStages> ran_before_{};  ///< for StageReport::rerun

  PackedDesign packed_;
  Placement placement_;
  PlaceStats place_stats_;
  std::unique_ptr<Fabric> fabric_;
  bool request_built_ = false;
  RouteRequest request_;
  RoutingResult routing_;
  VbsImage image_;
  BitVector stream_;
  EncodeStats encode_stats_;

  std::vector<Observer> observers_;
};

}  // namespace vbs
