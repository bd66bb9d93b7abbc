// The de-virtualization algorithm: the paper's run-time router (Section
// II-C) that expands a region's connection list back into switch
// configurations.
//
// Decoding is a deterministic, stateful process: connections are grouped
// into signals (pairs sharing an `in` port are one signal — the fan-out
// case) and routed strictly in list order by A* over the region's switch
// graph. The first pass is the pure greedy decode; if signals collide, a
// bounded number of negotiated-congestion iterations (the same PathFinder
// scheme as the global router) resolves the conflicts. Port wires are a
// hard constraint throughout — usable only by the signal that declares
// them — which keeps independently decoded neighbouring regions
// electrically consistent. Coarser clusters give the router more freedom
// but more work per entry: exactly the decode-cost trade-off the paper
// describes for clustering (Section IV-B).
//
// Because decoding is deterministic in the connection order, the offline
// encoder runs this exact code as its feedback loop: any order it validates
// is guaranteed to decode online (paper Section III-B). That makes this A*
// the hot loop of both the designer's compile and a tenant's cold load.
//
// Heuristic: A* estimates the remaining cost from the architecture's
// lookahead table (arch/lookahead.h), a unit-cost lower bound from any
// node to the target's port. It is admissible, so every search finds a
// cheapest path, but which of several equally cheap paths it takes, and
// so which switches a stream decodes to, depends on the heuristic: this is
// the decoder contract that stream versions 2 and 3 name (vbs_format.h).
//
// Search queue: the shared SearchHeap (util/search_heap.h), one per
// decoder, reused for every target. Entries pack key = bit_cast<u32>(est)
// << 32 | u32(node); est = cost + heuristic is never negative or NaN, so
// the key orders exactly like the (est, node) comparison (lowest
// estimate, then lowest node id), and the heap's branch-free sift code
// makes move for move what libstdc++'s std::priority_queue did — same
// pops, same trees, same nodes_expanded. It is deliberately not a d-ary
// heap: that would pop equal keys in a different order and change the
// decoded switches.
//
// Telemetry (when enabled), once per decoded entry: vbs.decode.entries,
// vbs.decode.raw_entries, vbs.decode.nodes_expanded and
// vbs.decode.negotiation_iterations — the DecodeStats sums — plus the
// search-effort counters vbs.decode.searches (A* runs: one per fan-out
// target not already in its signal's tree), vbs.decode.path_nodes (nodes
// those searches added to trees) and vbs.decode.stale_pops (pops of
// superseded queue entries), which are telemetry only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "fabric/fabric.h"
#include "util/bitvector.h"
#include "util/geometry.h"
#include "util/search_heap.h"
#include "vbs/region_model.h"
#include "vbs/vbs_format.h"

namespace vbs {

struct DecodeStats {
  long long pairs_routed = 0;
  long long pairs_failed = 0;
  long long nodes_expanded = 0;
  long long entries_decoded = 0;
  long long raw_entries = 0;
  long long negotiation_iterations = 0;

  DecodeStats& operator+=(const DecodeStats& o);
};

class Lookahead;

/// Routes entries of one region geometry. Reusable across entries; not
/// thread-safe (use one instance per decode thread).
class Devirtualizer {
 public:
  /// Shares the process-wide lookahead table of the region's architecture.
  explicit Devirtualizer(const RegionModel& region);

  /// Decodes one connection-list entry into the region's routing payload
  /// (c^2 * (Nraw-NLB) bits, region row-major). Returns false if no valid
  /// switch assignment is found within the iteration budget (the offline
  /// encoder then re-orders or falls back to raw coding). Raw entries are
  /// copied through unchanged.
  bool decode_entry(const VbsEntry& entry, BitVector& routing_out,
                    DecodeStats* stats = nullptr);

  const RegionModel& region() const { return *region_; }
  /// Heap bytes of the per-node and per-port search state, sized at
  /// construction (not the shared lookahead table).
  std::size_t state_bytes() const;

  /// Negotiation budget; 1 degenerates to the pure greedy decoder.
  void set_max_iterations(int n) { max_iterations_ = n; }
  int max_iterations() const { return max_iterations_; }

 private:
  struct TreeNode {
    std::int32_t node;
    std::int32_t switch_bit;  ///< -1 at the tree root
  };
  struct Group {
    int id = 0;
    std::int32_t source_node = -1;
    std::vector<std::int32_t> targets;
    std::vector<TreeNode> tree;
  };

  /// Per-node A* state, valid while `epoch` equals search_epoch_.
  struct Visit {
    std::uint32_t epoch;
    float cost;
    std::int32_t back;      ///< predecessor node, -1 at a search root
    std::int32_t back_bit;  ///< switch bit used to arrive, -1 at a root
  };
  /// node_owner_ value of interior nodes: usable by every signal.
  static constexpr std::int32_t kAnyGroup = -2;
  static constexpr const char* kEpochWrapMetric =
      "vbs.decode.epoch_wrap_resets";

  /// Search effort of one decode call, published as telemetry only.
  struct SearchCounts {
    long long searches = 0;
    long long path_nodes = 0;
    long long stale_pops = 0;
  };

  bool decode(const VbsEntry& entry, BitVector& routing_out,
              DecodeStats& stats);
  bool route_group(Group& g, double pres_fac);
  void rip_up(Group& g);
  void add_to_tree(Group& g, std::int32_t node, std::int32_t switch_bit);

  const RegionModel* region_;
  std::shared_ptr<const Lookahead> lookahead_;
  int max_iterations_ = 24;
  std::vector<Group> groups_;
  std::vector<std::int32_t> port_group_;  ///< per port: declaring group or -1
  /// Per node, set per entry from node_port(n): kAnyGroup for interior
  /// nodes, else the declaring group of its port (-1: undeclared). Port
  /// wires are usable only by their own signal.
  std::vector<std::int32_t> node_owner_;
  // Negotiation state (reset per entry).
  std::vector<std::uint16_t> occ_;
  std::vector<float> hist_;
  // Per-connection A* state.
  SearchHeap heap_;
  std::vector<Visit> visit_;
  std::uint32_t search_epoch_ = 0;
  // Membership of the group being routed: stamp == tree_epoch_.
  std::vector<std::uint32_t> tree_stamp_;
  std::uint32_t tree_epoch_ = 0;
  long long expanded_ = 0;
  SearchCounts counts_;
};

/// The region models and decoders of the region shapes decodes meet, keyed
/// by (architecture, cluster size c, extent). A task has
/// the full c x c shape plus up to three partial extents when its size is
/// not a multiple of c. decode_stream and the service's batch decode decode
/// through this class.
///
/// Lifetime. A cache is not thread-safe: one per decoding thread. A
/// one-image decode_stream (devirtualize_image, and the run-time
/// controller's load_at and relocate) keeps a local cache for that image.
/// The encoder's feedback loop does not use one: it decodes a single image
/// on several threads, so it builds that image's (at most four) region
/// models once, shares them read-only and gives each thread its own
/// decoders; an LRU per thread could drop a shape another still uses.
/// The service keeps one cache per pool rank for its whole life, so a rank
/// builds each shape once instead of once per load, and its
/// uncached-relocation re-decode passes rank 0's to decode_stream. A reused
/// decoder resets its search state per entry, so decoding stays pure per
/// entry: the same payload and DecodeStats as a fresh decoder.
///
/// Retention. A cache keeps at most kMaxShapes shapes and kMaxBytes of
/// retained_bytes(), dropping the least recently used shape first; the
/// shape asked for last always stays, alone if it alone exceeds kMaxBytes.
/// Headers with c up to 63 and any channel width within the lookahead
/// guard pass deserialize_vbs, so a flood of distinct hostile shapes pins
/// at most kMaxBytes, or one shape no larger than those guards allow.
/// References from region_for / decoder_for stay valid until the next call.
class RegionDecoderCache {
 public:
  static constexpr std::size_t kMaxShapes = 16;
  /// At W = 20 a serve library of c = 1 and c = 2 kinds retains 1.2 MB
  /// (0.8 MB of it the lookahead table), an encode at c = 8 3.7 MB.
  static constexpr std::size_t kMaxBytes = std::size_t{16} << 20;

  /// Extent of the cluster at cluster-grid position (cx, cy) of `header`.
  static std::pair<int, int> extent_of(const VbsImage& header, int cx, int cy);
  /// Reads only the header fields of `header` (spec, cluster, task size);
  /// throws VbsError{kBadEntry} for a position outside the task.
  const RegionModel& region_for(const VbsImage& header, int cx, int cy);
  Devirtualizer& decoder_for(const VbsImage& header, const VbsEntry& entry);

  /// Bytes the retained shapes keep alive: each region model and its
  /// decoder's search state, plus once per architecture the macro model
  /// and the lookahead table its shapes share.
  std::size_t retained_bytes() const;

 private:
  struct Slot {
    std::unique_ptr<RegionModel> region;
    std::unique_ptr<Devirtualizer> decoder;
    std::size_t bytes;  ///< region and decoder state, without shared tables
  };
  Slot& slot_for(const VbsImage& header, int cx, int cy);

  std::vector<std::unique_ptr<Slot>> slots_;  ///< most recently used first
};

/// One devirtualized stream: the parsed image, the decoded routing payload
/// of every entry (position-independent: it writes at any origin), and what
/// the decode cost.
struct DecodedStream {
  VbsImage image;
  std::vector<BitVector> payloads;
  DecodeStats decode;

  /// Bits this stream charges against a decoded-stream cache's capacity.
  std::size_t footprint_bits() const;
};

/// The whole-image decode loop: devirtualizes every entry of `image`
/// serially, in entry order, on `decoders` (one thread's set; the first
/// form builds its own). Throws VbsError{kDecodeFailed} at the first entry
/// that fails to route, which is impossible for encoder-validated streams.
/// `spent`, if given, also receives each entry's cost as it is decoded, so
/// it counts the work of a failed decode too. The service's batch path
/// decodes the same entries as one parallel work list instead.
std::shared_ptr<DecodedStream> decode_stream(VbsImage image,
                                             DecodeStats* spent = nullptr);
std::shared_ptr<DecodedStream> decode_stream(VbsImage image,
                                             RegionDecoderCache& decoders,
                                             DecodeStats* spent = nullptr);

/// Decodes a whole image (decode_stream) into a full-fabric raw
/// configuration, placing the task origin at `origin` (relocation: the same
/// image decodes at any origin, paper Section I). Throws VbsError:
/// kArchMismatch if the image targets another architecture, kNoPlacement if
/// the task does not fit at `origin`, kDecodeFailed if an entry fails.
/// `stats` receives the decode cost, that of a failed decode included.
BitVector devirtualize_image(const VbsImage& img, const FabricLayout& target,
                             Point origin, DecodeStats* stats = nullptr);

/// Writes one decoded entry (logic + routing payload) into a full-fabric
/// configuration image with the task origin at `origin`. Logic bits of a
/// used logic block are overwritten; routing bits are ORed in, never
/// cleared, a 64-bit word at a time.
void write_entry_config(const VbsImage& img, const VbsEntry& entry,
                        const BitVector& routing, const FabricLayout& target,
                        Point origin, BitVector& config);

}  // namespace vbs
