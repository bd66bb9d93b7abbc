#include "place/annealer.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "util/csr.h"
#include "util/logging.h"
#include "util/rng.h"
#include "util/telemetry.h"

namespace vbs {

namespace {

/// Slot bounds of one move batch. Each proposal is generated from the LUT
/// positions frozen at the start of its batch (see place_design), so the
/// batch boundaries are part of the annealing trajectory: the length is
/// adapted per temperature to the acceptance fraction (high-acceptance
/// temperatures run shorter batches) and must not change, or every
/// placement changes with it.
constexpr long long kMaxBatch = 64;
constexpr long long kMinBatch = 16;

long long batch_len_for(double frac) {
  return std::clamp(static_cast<long long>(8.0 / std::max(frac, 0.125)),
                    kMinBatch, kMaxBatch);
}

double crossing_factor(int terminals) {
  static constexpr double kQ[] = {1.0,    1.0,    1.0,    1.0,    1.0828,
                                  1.1536, 1.2206, 1.2823, 1.3385, 1.3991,
                                  1.4493, 1.4974, 1.5455, 1.5937, 1.6418,
                                  1.6899, 1.7304, 1.7709, 1.8114, 1.8519,
                                  1.8924, 1.9288, 1.9652, 2.0015, 2.0379,
                                  2.0743, 2.1061, 2.1379, 2.1698, 2.2016,
                                  2.2334};
  if (terminals < 4) return 1.0;
  if (terminals <= 30) return kQ[terminals];
  return 2.2334 + 0.02616 * (terminals - 30);
}

/// Register-resident working copy of one net's bounding box. The committed
/// boxes live in NetBoxStore's parallel arrays; a Box is what the kernels
/// load, mutate and store back.
struct Box {
  std::int32_t xmin, xmax, ymin, ymax;
  // Terminals sitting exactly on each bounding edge. A single-block move
  // updates the box in O(1); only when the last terminal leaves a bounding
  // edge (its count hits 0) does the box need a full terminal rescan.
  std::int32_t nxmin, nxmax, nymin, nymax;
  double cost;
};

/// Committed per-net boxes in structure-of-arrays layout: each field is one
/// contiguous array indexed by net, so the cost-delta accumulation reads a
/// single double stride and the commit scatter touches exactly the fields
/// it writes — no 40-byte struct pulled through the cache per access.
struct NetBoxStore {
  std::vector<std::int32_t> xmin, xmax, ymin, ymax;
  std::vector<std::int32_t> nxmin, nxmax, nymin, nymax;
  std::vector<double> cost;

  void assign(std::size_t n) {
    xmin.assign(n, 0);
    xmax.assign(n, 0);
    ymin.assign(n, 0);
    ymax.assign(n, 0);
    nxmin.assign(n, 0);
    nxmax.assign(n, 0);
    nymin.assign(n, 0);
    nymax.assign(n, 0);
    cost.assign(n, 0.0);
  }
  Box load(std::size_t i) const {
    return {xmin[i], xmax[i], ymin[i], ymax[i],
            nxmin[i], nxmax[i], nymin[i], nymax[i], cost[i]};
  }
  void store(std::size_t i, const Box& b) {
    xmin[i] = b.xmin;
    xmax[i] = b.xmax;
    ymin[i] = b.ymin;
    ymax[i] = b.ymax;
    nxmin[i] = b.nxmin;
    nxmax[i] = b.nxmax;
    nymin[i] = b.nymin;
    nymax[i] = b.nymax;
    cost[i] = b.cost;
  }
};

/// Folds one terminal at (x, y) into the box — branch-light: every bound
/// and count is updated with selects, no if/else ladder for the compiler to
/// serialize on.
inline void add_point(Box& b, std::int32_t x, std::int32_t y) {
  b.nxmin = x < b.xmin ? 1 : b.nxmin + (x == b.xmin ? 1 : 0);
  b.nxmax = x > b.xmax ? 1 : b.nxmax + (x == b.xmax ? 1 : 0);
  b.nymin = y < b.ymin ? 1 : b.nymin + (y == b.ymin ? 1 : 0);
  b.nymax = y > b.ymax ? 1 : b.nymax + (y == b.ymax ? 1 : 0);
  b.xmin = std::min(b.xmin, x);
  b.xmax = std::max(b.xmax, x);
  b.ymin = std::min(b.ymin, y);
  b.ymax = std::max(b.ymax, y);
}

/// Moves one terminal `from` -> `to`. Returns false when the terminal was
/// the last one on a bounding edge, i.e. the box may shrink and must be
/// rescanned (the box is left inconsistent in that case — the caller
/// discards it). Decrementing all four counts before testing is equivalent
/// to the short-circuiting formulation: on success every count would have
/// been decremented anyway, on failure the box is thrown away.
inline bool move_point(Box& b, Point from, Point to) {
  add_point(b, to.x, to.y);
  b.nxmin -= from.x == b.xmin ? 1 : 0;
  b.nxmax -= from.x == b.xmax ? 1 : 0;
  b.nymin -= from.y == b.ymin ? 1 : 0;
  b.nymax -= from.y == b.ymax ? 1 : 0;
  return b.nxmin != 0 && b.nxmax != 0 && b.nymin != 0 && b.nymax != 0;
}

/// Branch-light two-pass scan over gathered terminal coordinates: pass one
/// reduces min/max with selects, pass two counts terminals on each final
/// bound. Both passes stream two contiguous int32 spans — exactly the shape
/// the vectorizer wants — and produce the same counts the fold-in
/// formulation would (a bound's count is the number of terminals equal to
/// the final bound, however it was reached).
inline Box scan_box(const std::int32_t* xs, const std::int32_t* ys,
                    std::size_t n, double q) {
  std::int32_t xmin = xs[0], xmax = xs[0], ymin = ys[0], ymax = ys[0];
  for (std::size_t i = 1; i < n; ++i) {
    xmin = std::min(xmin, xs[i]);
    xmax = std::max(xmax, xs[i]);
    ymin = std::min(ymin, ys[i]);
    ymax = std::max(ymax, ys[i]);
  }
  std::int32_t nxmin = 0, nxmax = 0, nymin = 0, nymax = 0;
  for (std::size_t i = 0; i < n; ++i) {
    nxmin += xs[i] == xmin ? 1 : 0;
    nxmax += xs[i] == xmax ? 1 : 0;
    nymin += ys[i] == ymin ? 1 : 0;
    nymax += ys[i] == ymax ? 1 : 0;
  }
  Box b{xmin, xmax, ymin, ymax, nxmin, nxmax, nymin, nymax, 0.0};
  b.cost = q * ((xmax - xmin) + (ymax - ymin));
  return b;
}

/// Per-evaluation scratch: the net -> affected-slot dedup epochs plus the
/// gather buffers the scan kernel reads, reused across every evaluation.
struct EvalScratch {
  // 64-bit epochs: a wrapped stamp would silently alias a stale net_slot
  // entry, and a long anneal on one scratch can plausibly exceed 2^32
  // evaluations.
  std::vector<std::uint64_t> net_epoch;
  std::vector<std::uint32_t> net_slot;   ///< net -> index in the eval's affected list
  std::vector<std::uint8_t> dirty;       ///< parallel to affected: needs rescan
  std::vector<std::int32_t> tx, ty;      ///< gathered terminal coords (scan kernel)
  std::uint64_t epoch = 0;

  void init(int num_nets) {
    net_epoch.assign(static_cast<std::size_t>(num_nets), 0);
    net_slot.assign(static_cast<std::size_t>(num_nets), 0);
    epoch = 0;
  }
};

/// One evaluated proposal: the moved blocks, the affected nets with their
/// would-be boxes, and the cost delta — everything commit() needs to apply
/// it, or nothing to undo when it is rejected.
struct MoveEval {
  struct Moved {
    BlockId block;
    Point from, to;
  };
  int li = -1;         ///< LUT instance moved
  int occupant = -1;   ///< LUT instance swapped out of `to` (-1: free site)
  Point from, to;      ///< `from` as read at evaluation time
  double delta = 0.0;
  Moved moved[2];
  int n_moved = 0;
  std::vector<NetId> affected;
  std::vector<Box> new_boxes;
};

/// Incremental-cost annealing state. evaluate() prices a proposal without
/// mutating the state; commit() applies an accepted one.
class AnnealState {
 public:
  AnnealState(const Netlist& nl, const PackedDesign& pd, Placement& pl,
              bool incremental)
      : nl_(nl), pd_(pd), pl_(pl), incremental_(incremental) {
    ptx_.assign(static_cast<std::size_t>(nl.num_blocks()), 0);
    pty_.assign(static_cast<std::size_t>(nl.num_blocks()), 0);
    for (int i = 0; i < pd.num_luts(); ++i) {
      set_pos(pd.luts[static_cast<std::size_t>(i)],
              pl.lut_loc[static_cast<std::size_t>(i)]);
    }
    for (int i = 0; i < pd.num_ios(); ++i) {
      set_pos(pd.ios[static_cast<std::size_t>(i)],
              pl.io_point(pl.io_loc[static_cast<std::size_t>(i)]));
    }

    // block -> (net, terminal multiplicity) in CSR form. The multiplicity
    // matters: a block appearing as driver and sink (or on several sink
    // pins) of one net contributes that many terminals to its box.
    {
      std::vector<NetId> mark(static_cast<std::size_t>(nl.num_blocks()),
                              kNoNet);
      std::vector<std::int32_t> mult(static_cast<std::size_t>(nl.num_blocks()),
                                     0);
      CsrBuilder<NetRef> builder(static_cast<std::size_t>(nl.num_blocks()));
      for (NetId n = 0; n < nl.num_nets(); ++n) {
        const Net& net = nl.net(n);
        if (net.sinks.empty()) continue;
        auto touch = [&](BlockId b) {
          if (mark[static_cast<std::size_t>(b)] != n) {
            mark[static_cast<std::size_t>(b)] = n;
            builder.count(static_cast<std::size_t>(b));
          }
        };
        touch(net.driver);
        for (const Net::Sink& s : net.sinks) touch(s.block);
      }
      builder.prepare();
      mark.assign(mark.size(), kNoNet);
      std::vector<BlockId> touched;
      for (NetId n = 0; n < nl.num_nets(); ++n) {
        const Net& net = nl.net(n);
        if (net.sinks.empty()) continue;
        touched.clear();
        auto touch = [&](BlockId b) {
          const auto sb = static_cast<std::size_t>(b);
          if (mark[sb] != n) {
            mark[sb] = n;
            mult[sb] = 0;
            touched.push_back(b);
          }
          ++mult[sb];
        };
        touch(net.driver);
        for (const Net::Sink& s : net.sinks) touch(s.block);
        for (BlockId b : touched) {
          builder.add(static_cast<std::size_t>(b),
                      {n, mult[static_cast<std::size_t>(b)]});
        }
      }
      nets_of_block_ = std::move(builder).build();
    }

    // net -> terminal block list (driver first, then every sink occurrence)
    // in CSR form: the scan kernel's gather source. Empty-sink nets get an
    // empty row and a zero box.
    {
      CsrBuilder<BlockId> builder(static_cast<std::size_t>(nl.num_nets()));
      for (NetId n = 0; n < nl.num_nets(); ++n) {
        const Net& net = nl.net(n);
        if (net.sinks.empty()) continue;
        for (std::size_t k = 0; k < net.sinks.size() + 1; ++k) {
          builder.count(static_cast<std::size_t>(n));
        }
      }
      builder.prepare();
      for (NetId n = 0; n < nl.num_nets(); ++n) {
        const Net& net = nl.net(n);
        if (net.sinks.empty()) continue;
        builder.add(static_cast<std::size_t>(n), net.driver);
        for (const Net::Sink& s : net.sinks) {
          builder.add(static_cast<std::size_t>(n), s.block);
        }
      }
      net_terms_ = std::move(builder).build();
    }

    q_.resize(static_cast<std::size_t>(nl.num_nets()));
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      q_[static_cast<std::size_t>(n)] =
          crossing_factor(static_cast<int>(nl.net(n).sinks.size()) + 1);
    }
    boxes_.assign(static_cast<std::size_t>(nl.num_nets()));
    total_cost_ = 0.0;
    std::vector<std::int32_t> tx, ty;
    for (NetId n = 0; n < nl.num_nets(); ++n) {
      const auto sn = static_cast<std::size_t>(n);
      const std::size_t cnt = gather(n, tx, ty);
      if (cnt == 0) continue;  // empty-sink net: zero box from assign()
      boxes_.store(sn, scan_box(tx.data(), ty.data(), cnt, q_[sn]));
      total_cost_ += boxes_.cost[sn];
    }
    site_of_.assign(
        static_cast<std::size_t>(pl.grid_w) * static_cast<std::size_t>(pl.grid_h),
        -1);
    for (int i = 0; i < pd.num_luts(); ++i) {
      const Point p = pl.lut_loc[static_cast<std::size_t>(i)];
      site_of_[site_index(p)] = i;
    }
  }

  double total_cost() const { return total_cost_; }
  int num_nets() const { return nl_.num_nets(); }

  /// From-scratch cost over all non-empty nets via the scan kernel — the
  /// reference the incremental bookkeeping is measured against.
  double fresh_total_cost() const {
    double fresh = 0.0;
    std::vector<std::int32_t> tx, ty;
    for (NetId n = 0; n < nl_.num_nets(); ++n) {
      const std::size_t cnt = gather(n, tx, ty);
      if (cnt == 0) continue;
      fresh +=
          scan_box(tx.data(), ty.data(), cnt, q_[static_cast<std::size_t>(n)])
              .cost;
    }
    return fresh;
  }

  /// Per-net from-scratch costs (0.0 for empty-sink nets); the kernel
  /// cross-check harness compares these against an independent reference.
  void fresh_costs(std::vector<double>& out) const {
    out.assign(static_cast<std::size_t>(nl_.num_nets()), 0.0);
    std::vector<std::int32_t> tx, ty;
    for (NetId n = 0; n < nl_.num_nets(); ++n) {
      const std::size_t cnt = gather(n, tx, ty);
      if (cnt == 0) continue;
      out[static_cast<std::size_t>(n)] =
          scan_box(tx.data(), ty.data(), cnt, q_[static_cast<std::size_t>(n)])
              .cost;
    }
  }

  /// |accumulated cost - from-scratch recomputation| over all nets; bounds
  /// the drift of thousands of incremental += delta updates.
  double cost_drift() const {
    return std::abs(fresh_total_cost() - total_cost_);
  }

  Point lut_loc(int li) const {
    return pl_.lut_loc[static_cast<std::size_t>(li)];
  }

  /// Evaluates moving LUT instance `li` to `to` (swapping with any
  /// occupant) against the current state, without mutating it.
  void evaluate(int li, Point to, EvalScratch& s, MoveEval& out) const {
    out.li = li;
    out.to = to;
    out.from = pl_.lut_loc[static_cast<std::size_t>(li)];
    out.occupant = site_of_[site_index(to)];
    out.n_moved = 0;
    out.moved[out.n_moved++] = {pd_.luts[static_cast<std::size_t>(li)],
                                out.from, to};
    if (out.occupant >= 0) {
      // occupant == li only for the degenerate to == from proposal, where
      // both overlay entries carry the same (unchanged) position.
      out.moved[out.n_moved++] = {
          pd_.luts[static_cast<std::size_t>(out.occupant)], to, out.from};
    }

    ++s.epoch;
    out.affected.clear();
    out.new_boxes.clear();
    s.dirty.clear();
    for (int i = 0; i < out.n_moved; ++i) {
      const MoveEval::Moved& mv = out.moved[i];
      for (const NetRef& ref :
           nets_of_block_.row(static_cast<std::size_t>(mv.block))) {
        const auto sn = static_cast<std::size_t>(ref.net);
        std::size_t slot;
        if (s.net_epoch[sn] != s.epoch) {
          s.net_epoch[sn] = s.epoch;
          slot = out.affected.size();
          s.net_slot[sn] = static_cast<std::uint32_t>(slot);
          out.affected.push_back(ref.net);
          out.new_boxes.push_back(boxes_.load(sn));
          // In full-recompute mode every affected box is rescanned.
          s.dirty.push_back(incremental_ ? 0 : 1);
        } else {
          // Swap-aware dedup: a net touching both swapped blocks gets one
          // affected slot, its box updated once per moved terminal.
          slot = s.net_slot[sn];
        }
        if (s.dirty[slot] != 0) continue;
        Box& nb = out.new_boxes[slot];
        for (std::int32_t k = 0; k < ref.mult; ++k) {
          if (!move_point(nb, mv.from, mv.to)) {
            s.dirty[slot] = 1;  // moved off a shrinking edge: rescan below
            break;
          }
        }
      }
    }
    double delta = 0.0;
    for (std::size_t k = 0; k < out.affected.size(); ++k) {
      const auto sn = static_cast<std::size_t>(out.affected[k]);
      if (s.dirty[k] != 0) {
        const std::size_t cnt = gather_moved(out.affected[k], out, s.tx, s.ty);
        out.new_boxes[k] = scan_box(s.tx.data(), s.ty.data(), cnt, q_[sn]);
      } else {
        Box& nb = out.new_boxes[k];
        nb.cost = q_[sn] * ((nb.xmax - nb.xmin) + (nb.ymax - nb.ymin));
      }
      delta += out.new_boxes[k].cost - boxes_.cost[sn];
    }
    out.delta = delta;
  }

  /// Applies an evaluation.
  void commit(const MoveEval& ev) {
    for (std::size_t k = 0; k < ev.affected.size(); ++k) {
      boxes_.store(static_cast<std::size_t>(ev.affected[k]), ev.new_boxes[k]);
    }
    total_cost_ += ev.delta;
    for (int i = 0; i < ev.n_moved; ++i) {
      set_pos(ev.moved[i].block, ev.moved[i].to);
    }
    pl_.lut_loc[static_cast<std::size_t>(ev.li)] = ev.to;
    site_of_[site_index(ev.to)] = ev.li;
    if (ev.occupant >= 0) {
      if (ev.occupant != ev.li) {
        pl_.lut_loc[static_cast<std::size_t>(ev.occupant)] = ev.from;
      }
      site_of_[site_index(ev.from)] = ev.occupant;
    } else {
      site_of_[site_index(ev.from)] = -1;
    }
  }

 private:
  struct NetRef {
    NetId net;
    std::int32_t mult;  ///< terminals of this net on this block
  };

  std::size_t site_index(Point p) const {
    return static_cast<std::size_t>(p.y) * pl_.grid_w + p.x;
  }

  void set_pos(BlockId b, Point p) {
    ptx_[static_cast<std::size_t>(b)] = p.x;
    pty_[static_cast<std::size_t>(b)] = p.y;
  }

  /// Gathers net `n`'s terminal coordinates into contiguous spans for the
  /// scan kernel. Returns the terminal count (0 for empty-sink nets).
  std::size_t gather(NetId n, std::vector<std::int32_t>& tx,
                     std::vector<std::int32_t>& ty) const {
    const auto row = net_terms_.row(static_cast<std::size_t>(n));
    tx.resize(row.size());
    ty.resize(row.size());
    for (std::size_t i = 0; i < row.size(); ++i) {
      const auto sb = static_cast<std::size_t>(row[i]);
      tx[i] = ptx_[sb];
      ty[i] = pty_[sb];
    }
    return row.size();
  }

  /// Gather under the evaluation's move overlay: the would-be position of
  /// the (at most two) moved blocks, the committed position of everything
  /// else. Select-based — no per-terminal branch ladder.
  std::size_t gather_moved(NetId n, const MoveEval& ev,
                           std::vector<std::int32_t>& tx,
                           std::vector<std::int32_t>& ty) const {
    const auto row = net_terms_.row(static_cast<std::size_t>(n));
    tx.resize(row.size());
    ty.resize(row.size());
    const BlockId b0 = ev.moved[0].block;
    const BlockId b1 = ev.n_moved > 1 ? ev.moved[1].block : BlockId{-1};
    const Point p0 = ev.moved[0].to;
    const Point p1 = ev.n_moved > 1 ? ev.moved[1].to : Point{};
    for (std::size_t i = 0; i < row.size(); ++i) {
      const BlockId b = row[i];
      std::int32_t x = ptx_[static_cast<std::size_t>(b)];
      std::int32_t y = pty_[static_cast<std::size_t>(b)];
      if (b == b0) {
        x = p0.x;
        y = p0.y;
      }
      if (b == b1) {
        x = p1.x;
        y = p1.y;
      }
      tx[i] = x;
      ty[i] = y;
    }
    return row.size();
  }

  const Netlist& nl_;
  const PackedDesign& pd_;
  Placement& pl_;
  const bool incremental_;
  // Block positions, SoA (one contiguous int32 stride per axis).
  std::vector<std::int32_t> ptx_, pty_;
  Csr<NetRef> nets_of_block_;
  Csr<BlockId> net_terms_;  ///< net -> terminal blocks (gather source)
  std::vector<double> q_;  ///< per-net crossing factor (terminal count is static)
  NetBoxStore boxes_;
  std::vector<int> site_of_;
  double total_cost_ = 0.0;
};

/// Bits -> uniform in [0,1): the exact mapping Rng::next_double uses, so a
/// slot's acceptance uniform, drawn as raw bits (one next_u64, the same
/// single state advance next_double performs), reproduces the eagerly drawn
/// double when it is converted only where the accept test needs it.
inline double slot_u(std::uint64_t bits) {
  return static_cast<double>(bits >> 11) * 0x1.0p-53;
}

/// Assigns each I/O to the free perimeter slot nearest the centroid of the
/// logic it connects to.
void assign_ios(const Netlist& nl, const PackedDesign& pd, Placement& pl,
                int io_per_tile) {
  const int gw = pl.grid_w, gh = pl.grid_h;
  // Capacity used per (side, tile).
  std::vector<std::vector<int>> used(4);
  used[0].assign(static_cast<std::size_t>(gh), 0);  // west
  used[1].assign(static_cast<std::size_t>(gh), 0);  // east
  used[2].assign(static_cast<std::size_t>(gw), 0);  // north
  used[3].assign(static_cast<std::size_t>(gw), 0);  // south

  std::vector<Point> lut_pt(static_cast<std::size_t>(nl.num_blocks()));
  for (int i = 0; i < pd.num_luts(); ++i) {
    lut_pt[static_cast<std::size_t>(pd.luts[i])] =
        pl.lut_loc[static_cast<std::size_t>(i)];
  }

  for (int i = 0; i < pd.num_ios(); ++i) {
    const BlockId bi = pd.ios[i];
    const Block& b = nl.block(bi);
    // Centroid of connected LUT terminals.
    double cx = gw / 2.0, cy = gh / 2.0;
    int cnt = 0;
    double sx = 0, sy = 0;
    auto add_terminal = [&](BlockId other) {
      if (nl.block(other).type == BlockType::kLut) {
        sx += lut_pt[static_cast<std::size_t>(other)].x;
        sy += lut_pt[static_cast<std::size_t>(other)].y;
        ++cnt;
      }
    };
    if (b.type == BlockType::kInput) {
      for (const Net::Sink& s : nl.net(b.output).sinks) add_terminal(s.block);
    } else {
      add_terminal(nl.net(b.inputs[0]).driver);
    }
    if (cnt > 0) {
      cx = sx / cnt;
      cy = sy / cnt;
    }
    // Scan perimeter positions for the nearest one with capacity.
    IoSlot best{};
    double best_d = 1e30;
    auto consider = [&](Side side, int tile, Point at) {
      const auto s = static_cast<std::size_t>(side);
      if (used[s][static_cast<std::size_t>(tile)] >= io_per_tile) return;
      const double d =
          std::abs(at.x - cx) + std::abs(at.y - cy) +
          0.01 * used[s][static_cast<std::size_t>(tile)];
      if (d < best_d) {
        best_d = d;
        best = {side, tile, used[s][static_cast<std::size_t>(tile)]};
      }
    };
    for (int t = 0; t < gh; ++t) {
      consider(Side::kWest, t, {0, t});
      consider(Side::kEast, t, {gw - 1, t});
    }
    for (int t = 0; t < gw; ++t) {
      consider(Side::kNorth, t, {t, gh - 1});
      consider(Side::kSouth, t, {t, 0});
    }
    if (best_d >= 1e30) {
      throw std::invalid_argument("place: not enough perimeter I/O capacity");
    }
    pl.io_loc[static_cast<std::size_t>(i)] = best;
    ++used[static_cast<std::size_t>(best.side)][static_cast<std::size_t>(best.tile)];
  }
}

/// Pre-SoA AoS bounding-box formulation, retained verbatim as the
/// cross-check oracle for check_place_kernels: an independent code path
/// (branchy fold-in, struct-of-everything per net) that must produce
/// bit-identical per-net costs.
namespace reference {

struct RefBox {
  int minx, maxx, miny, maxy;
  int nmin_x, nmax_x, nmin_y, nmax_y;
  double cost;
};

void add_point(RefBox& nb, Point q) {
  if (q.x < nb.minx) {
    nb.minx = q.x;
    nb.nmin_x = 1;
  } else if (q.x == nb.minx) {
    ++nb.nmin_x;
  }
  if (q.x > nb.maxx) {
    nb.maxx = q.x;
    nb.nmax_x = 1;
  } else if (q.x == nb.maxx) {
    ++nb.nmax_x;
  }
  if (q.y < nb.miny) {
    nb.miny = q.y;
    nb.nmin_y = 1;
  } else if (q.y == nb.miny) {
    ++nb.nmin_y;
  }
  if (q.y > nb.maxy) {
    nb.maxy = q.y;
    nb.nmax_y = 1;
  } else if (q.y == nb.maxy) {
    ++nb.nmax_y;
  }
}

/// Per-net costs of `pl` via the AoS fold (driver first, then sinks).
void sweep_costs(const Netlist& nl, const PackedDesign& pd,
                 const Placement& pl, std::vector<double>& out) {
  std::vector<Point> pt(static_cast<std::size_t>(nl.num_blocks()), Point{});
  for (int i = 0; i < pd.num_luts(); ++i) {
    pt[static_cast<std::size_t>(pd.luts[i])] =
        pl.lut_loc[static_cast<std::size_t>(i)];
  }
  for (int i = 0; i < pd.num_ios(); ++i) {
    pt[static_cast<std::size_t>(pd.ios[i])] =
        pl.io_point(pl.io_loc[static_cast<std::size_t>(i)]);
  }
  out.assign(static_cast<std::size_t>(nl.num_nets()), 0.0);
  for (NetId n = 0; n < nl.num_nets(); ++n) {
    const Net& net = nl.net(n);
    if (net.sinks.empty()) continue;
    const Point p = pt[static_cast<std::size_t>(net.driver)];
    RefBox nb{p.x, p.x, p.y, p.y, 1, 1, 1, 1, 0.0};
    for (const Net::Sink& s : net.sinks) {
      add_point(nb, pt[static_cast<std::size_t>(s.block)]);
    }
    out[static_cast<std::size_t>(n)] =
        crossing_factor(static_cast<int>(net.sinks.size()) + 1) *
        ((nb.maxx - nb.minx) + (nb.maxy - nb.miny));
  }
}

}  // namespace reference

}  // namespace

PlaceKernelCheck check_place_kernels(const Netlist& nl, const PackedDesign& pd,
                                     const Placement& pl) {
  PlaceKernelCheck rep;
  rep.nets = nl.num_nets();

  Placement scratch_pl = pl;  // AnnealState takes the placement by reference
  AnnealState state(nl, pd, scratch_pl, /*incremental=*/true);

  std::vector<double> soa_costs, ref_costs;
  state.fresh_costs(soa_costs);
  reference::sweep_costs(nl, pd, pl, ref_costs);

  rep.identical = soa_costs.size() == ref_costs.size();
  rep.total_cost = 0.0;
  for (std::size_t n = 0; rep.identical && n < soa_costs.size(); ++n) {
    if (soa_costs[n] != ref_costs[n]) rep.identical = false;
  }
  for (const double c : soa_costs) rep.total_cost += c;
  return rep;
}

Placement place_design(const Netlist& nl, const PackedDesign& pd,
                       const ArchSpec& spec, int grid_w, int grid_h,
                       const PlaceOptions& opts, PlaceStats* stats) {
  if (pd.num_luts() > grid_w * grid_h) {
    throw std::invalid_argument("place: design does not fit the grid");
  }
  const int io_per_tile =
      opts.io_per_tile > 0 ? opts.io_per_tile : std::max(1, spec.chan_width / 2);
  if (pd.num_ios() > 2 * (grid_w + grid_h) * io_per_tile) {
    throw std::invalid_argument("place: too many I/Os for the perimeter");
  }

  Rng rng(opts.seed == 0 ? 1 : opts.seed);  // 0 = unset, see PlaceOptions
  Placement pl;
  pl.grid_w = grid_w;
  pl.grid_h = grid_h;

  // Initial placement: LUTs on a random permutation of tiles.
  std::vector<int> sites(static_cast<std::size_t>(grid_w) * grid_h);
  for (std::size_t i = 0; i < sites.size(); ++i) sites[i] = static_cast<int>(i);
  rng.shuffle(sites);
  pl.lut_loc.resize(static_cast<std::size_t>(pd.num_luts()));
  for (int i = 0; i < pd.num_luts(); ++i) {
    const int s = sites[static_cast<std::size_t>(i)];
    pl.lut_loc[static_cast<std::size_t>(i)] = {s % grid_w, s / grid_w};
  }
  // Initial I/O: centroid-greedy against the random placement; refined after
  // annealing.
  pl.io_loc.resize(static_cast<std::size_t>(pd.num_ios()));
  assign_ios(nl, pd, pl, io_per_tile);

  AnnealState state(nl, pd, pl, opts.incremental_bbox);
  if (stats) stats->initial_cost = state.total_cost();

  if (pd.num_luts() > 1) {
    const long long moves_per_t = std::max<long long>(
        32, static_cast<long long>(opts.effort *
                                   std::pow(pd.num_luts(), 4.0 / 3.0)));
    double rlim = std::max(grid_w, grid_h);

    EvalScratch scratch;
    scratch.init(nl.num_nets());
    MoveEval eval;

    // Batch-start position overlay: every LUT moved earlier in the current
    // batch parks its position from the start of the batch here,
    // epoch-stamped. Move generation reads these frozen positions, not the
    // live ones, while evaluation and commit read the live state. That is
    // the annealer's defined trajectory: generating from the live
    // positions would propose different moves and change every placement.
    std::vector<std::uint64_t> gen_epoch_of(
        static_cast<std::size_t>(pd.num_luts()), 0);
    std::vector<Point> gen_frozen(static_cast<std::size_t>(pd.num_luts()));
    std::uint64_t gen_epoch = 0;
    auto freeze = [&](int li, Point at) {
      const auto s = static_cast<std::size_t>(li);
      if (gen_epoch_of[s] != gen_epoch) {
        gen_epoch_of[s] = gen_epoch;
        gen_frozen[s] = at;
      }
    };

    // Initial temperature: 20 x the std-dev of deltas over a random-walk
    // sample (all moves accepted), per VPR.
    double sum = 0, sum2 = 0;
    const int samples = std::min(200, pd.num_luts() * 2);
    for (int s = 0; s < samples; ++s) {
      const int li = static_cast<int>(
          rng.next_below(static_cast<std::uint64_t>(pd.num_luts())));
      const Point to{rng.next_int(0, grid_w - 1), rng.next_int(0, grid_h - 1)};
      state.evaluate(li, to, scratch, eval);
      state.commit(eval);
      sum += eval.delta;
      sum2 += eval.delta * eval.delta;
    }
    const double var = sum2 / samples - (sum / samples) * (sum / samples);
    double t0 = 20.0 * std::sqrt(std::max(0.0, var));
    if (t0 <= 0) t0 = 1.0;

    // Anneal.
    double t = t0;
    long long tot_moves = 0, tot_accept = 0;
    int n_temps = 0;
    long long batch_len = kMinBatch;  // first temperature accepts ~all
    while (true) {
      telem::Span temp_span("place", "temperature");
      long long accepted = 0, evaluated = 0;
      long long batches = 0;
      // The bounded trip count stays moves_per_t slots; how many of them
      // are real proposals (and so feed the schedule) varies.
      telem::Span kernel_span("place", "batches");
      for (long long base = 0; base < moves_per_t; base += batch_len) {
        telem::counter_add("place.batches");
        ++batches;
        const auto bsz =
            static_cast<std::size_t>(std::min(batch_len, moves_per_t - base));
        const int r = std::max(1, static_cast<int>(rlim));
        // Exactly four RNG draws per slot (instance, two offsets,
        // acceptance uniform) whether or not the slot is degenerate, so the
        // RNG stream is a pure function of the seed and the schedule,
        // independent of accept/reject outcomes.
        ++gen_epoch;
        for (std::size_t i = 0; i < bsz; ++i) {
          const int li = static_cast<int>(
              rng.next_below(static_cast<std::uint64_t>(pd.num_luts())));
          const auto sli = static_cast<std::size_t>(li);
          const Point from = gen_epoch_of[sli] == gen_epoch
                                 ? gen_frozen[sli]
                                 : state.lut_loc(li);
          const Point to{
              std::clamp(from.x + rng.next_int(-r, r), 0, grid_w - 1),
              std::clamp(from.y + rng.next_int(-r, r), 0, grid_h - 1)};
          const std::uint64_t ubits = rng.next_u64();
          if (to == from) continue;  // degenerate at generation time
          state.evaluate(li, to, scratch, eval);
          // Degenerate at evaluation time: an earlier commit of this batch
          // moved the drawn LUT onto the slot's target. Neither kind of
          // degenerate slot is a proposal, so neither feeds the schedule.
          if (eval.from == eval.to) continue;
          ++evaluated;
          const double d = eval.delta;
          if (d <= 0 || slot_u(ubits) < std::exp(-d / t)) {
            // Park the movers' batch-start positions before the commit
            // changes them (no-ops if already parked this batch).
            freeze(eval.li, eval.from);
            if (eval.occupant >= 0 && eval.occupant != eval.li) {
              freeze(eval.occupant, eval.to);
            }
            state.commit(eval);
            ++accepted;
          }
        }
      }
      kernel_span.arg("batches", batches).arg("evaluated", evaluated);
      tot_moves += evaluated;
      tot_accept += accepted;
      ++n_temps;
      // Acceptance fraction over real proposals only: degenerate skipped
      // slots used to be counted here, deflating frac and mis-driving the
      // temperature and range-limit updates below.
      const double frac =
          evaluated > 0
              ? static_cast<double>(accepted) / static_cast<double>(evaluated)
              : 0.0;
      // VPR range-limit and temperature updates.
      rlim = std::clamp(rlim * (1.0 - 0.44 + frac), 1.0,
                        static_cast<double>(std::max(grid_w, grid_h)));
      double alpha;
      if (frac > 0.96) alpha = 0.5;
      else if (frac > 0.8) alpha = 0.9;
      else if (frac > 0.15 || rlim > 1.0) alpha = 0.95;
      else alpha = 0.8;
      t *= alpha;
      batch_len = batch_len_for(frac);
      temp_span.arg("t", t).arg("frac", frac).arg("moves", evaluated);
      telem::counter_add("place.temperatures");
      telem::counter_add("place.moves", evaluated);
      if (t < 0.005 * state.total_cost() / std::max(1, state.num_nets())) {
        break;
      }
    }
    if (stats) {
      stats->moves = tot_moves;
      stats->accepted = tot_accept;
      stats->temperatures = n_temps;
    }
  }

  // The drift bound is a property of the annealing bookkeeping, so it is
  // taken before the I/O refinement below invalidates the anneal state.
  if (stats) stats->cost_drift = state.cost_drift();

  // Final I/O refinement against the annealed logic placement.
  assign_ios(nl, pd, pl, io_per_tile);

  if (stats) {
    // Measured after the refinement (the anneal state still holds the
    // pre-refinement I/O slots): final_cost is the cost of the placement
    // actually returned, and equals placement_hpwl(nl, pd, result).
    stats->final_cost = placement_hpwl(nl, pd, pl);
  }
  pl.validate(pd);
  return pl;
}

}  // namespace vbs
