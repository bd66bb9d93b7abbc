// The run-time reconfiguration controller (paper Fig. 2): loads Virtual
// Bit-Streams from external memory, de-virtualizes them serially with
// decode_stream (vbs/devirtualizer.h) and finalizes the configuration at
// the physical location chosen by the placement allocator. Also implements
// task eviction and the relocation / migration the VBS format exists to
// enable. Parallel decoding (macro regions are independent, paper Section
// II-C) is the service's: it decodes on its ThreadPool and commits here
// through load_decoded and relocate_decoded.
#pragma once

#include <map>
#include <memory>
#include <optional>

#include "fabric/fabric.h"
#include "rtc/allocator.h"
#include "util/bitvector.h"
#include "util/error.h"
#include "util/fault.h"
#include "vbs/devirtualizer.h"
#include "vbs/vbs_format.h"

namespace vbs {

using TaskId = int;
inline constexpr TaskId kNoTask = -1;

struct TaskRecord {
  TaskId id = kNoTask;
  Rect rect;                     ///< fabric region owned by the task
  std::size_t stream_bits = 0;   ///< serialized VBS size
  DecodeStats decode;
  double decode_seconds = 0.0;
  /// Decode threads: 1 for the controller's own loads, the pool size for
  /// the service's (kept in snapshots).
  int threads_used = 1;
};

class ReconfigController {
 public:
  ReconfigController(const ArchSpec& spec, int width, int height);

  /// The grid and its configuration-bit layout. The controller holds no
  /// routing graph; build a Fabric from this to check connectivity.
  const FabricLayout& fabric() const { return layout_; }
  /// The modelled configuration memory layer of the whole chip.
  const BitVector& config_memory() const { return config_; }
  double occupancy() const { return alloc_.occupancy(); }
  int num_tasks() const { return static_cast<int>(tasks_.size()); }

  /// Loads a serialized VBS wherever it fits (first fit). Returns kNoTask
  /// if no free rectangle is large enough.
  TaskId load(const BitVector& vbs_stream);

  /// Loads at a caller-chosen origin: decodes, then commits like
  /// load_decoded. Throws std::logic_error if the region is occupied or out
  /// of bounds, VbsError on a hostile stream or a failed decode; a throw
  /// leaves the allocator and configuration memory untouched.
  TaskId load_at(const BitVector& vbs_stream, Point origin);

  /// Clears the task's region (configuration zeroed) and frees it.
  void unload(TaskId id);

  /// Migrates a loaded task: decodes its retained VBS, then moves it like
  /// relocate_decoded — the on-the-fly relocation of Section V. The decode
  /// runs before the allocator is touched, so a failed decode leaves the
  /// task where it was.
  void relocate(TaskId id, Point new_origin);

  /// Compacts all tasks toward the origin to fight fragmentation.
  void defragment();

  /// Commits a pre-decoded image at `origin` without running the
  /// devirtualizer: `payloads[i]` is the decoded routing payload of
  /// `img.entries[i]` (what decode_stream produces, and what a
  /// DecodedStreamCache retains). `decode` is whatever devirtualization
  /// cost produced the payloads — zero for a cache hit — and is recorded
  /// verbatim in the task record and the aggregate stats.
  TaskId load_decoded(const VbsImage& img,
                      const std::vector<BitVector>& payloads,
                      std::size_t stream_bits, Point origin,
                      const DecodeStats& decode = {},
                      double decode_seconds = 0.0, int threads_used = 1);

  /// Migrates a loaded task by copying pre-decoded payloads to the new
  /// origin — no devirtualization, the relocation fast path the stream
  /// cache enables. Same overlap rules as relocate.
  void relocate_decoded(TaskId id, Point new_origin,
                        const std::vector<BitVector>& payloads);

  const TaskRecord& record(TaskId id) const;
  /// The retained (parsed) VBS of a loaded task — what relocation decodes.
  const VbsImage& image_of(TaskId id) const;
  std::vector<TaskId> task_ids() const;
  std::optional<Point> find_free_slot(int w, int h) const {
    return alloc_.find_free(w, h);
  }
  /// Read-only view of the tile allocator; the service's placement and
  /// eviction planner probe it.
  const RectAllocator& allocator() const { return alloc_; }

  /// Aggregate decode throughput counters across all loads.
  const DecodeStats& total_decode_stats() const { return total_stats_; }

  /// Installs a deterministic fault plan (util/fault.h): load_at and
  /// relocate then inject transient decode faults and load_decoded
  /// transient allocation faults, each keyed by a serial per-site sequence
  /// counter and thrown as VbsError{kFaultInjected} with full rollback
  /// (allocator and configuration memory untouched). nullptr (the default)
  /// disables injection; the plan must outlive the controller.
  void set_fault_plan(const FaultPlan* plan) { fault_plan_ = plan; }

  // --- snapshot / recovery hooks (rtc/service/journal.h) ---------------------
  //
  // The service journal restores a controller to a byte-identical prior
  // state: the whole configuration memory, every task (region re-occupied,
  // record and retained image re-adopted — without re-decoding), the
  // serial counters that key fault-plan decisions and the aggregate decode
  // stats. Restore hooks are only meaningful on a freshly-constructed
  // controller.

  TaskId next_task_id() const { return next_id_; }
  std::uint64_t decode_seq() const { return decode_seq_; }
  std::uint64_t alloc_seq() const { return alloc_seq_; }
  void restore_counters(TaskId next_id, std::uint64_t decode_seq,
                        std::uint64_t alloc_seq, const DecodeStats& total) {
    next_id_ = next_id;
    decode_seq_ = decode_seq;
    alloc_seq_ = alloc_seq;
    total_stats_ = total;
  }
  /// Replaces the configuration memory wholesale; throws std::logic_error
  /// on a size mismatch (snapshot from a different fabric).
  void restore_config_memory(const BitVector& config);
  /// Re-adopts a snapshotted task: occupies rec.rect and installs the
  /// record + image without touching configuration memory (the restored
  /// config already contains its decoded bits). Throws std::logic_error if
  /// the region is unavailable or the id is already in use.
  void restore_task(const TaskRecord& rec, VbsImage image);

 private:
  struct LoadedTask {
    TaskRecord rec;
    VbsImage image;  ///< retained for relocation
  };

  /// Decodes `img` with decode_stream: the decode-fault site, the
  /// rtc/decode span and the rtc.decode.* counters. Changes no state but
  /// decode_seq_.
  std::shared_ptr<DecodedStream> decode(VbsImage img, double& seconds);
  /// Occupies rec.rect, writes the payloads and adopts the task under the
  /// next id: the commit step of load_at and load_decoded.
  TaskId commit(VbsImage img, const std::vector<BitVector>& payloads,
                TaskRecord rec);
  /// Writes already-decoded entry payloads into the configuration memory.
  void write_decoded(const VbsImage& img,
                     const std::vector<BitVector>& payloads, Point origin);
  void check_arch(const VbsImage& img) const;
  /// Validates payload count and per-entry bit length against `img`.
  void check_payloads(const VbsImage& img,
                      const std::vector<BitVector>& payloads) const;
  void clear_region(const Rect& r);
  LoadedTask& lookup(TaskId id);

  FabricLayout layout_;
  BitVector config_;
  RectAllocator alloc_;
  std::map<TaskId, LoadedTask> tasks_;
  TaskId next_id_ = 0;
  DecodeStats total_stats_;
  const FaultPlan* fault_plan_ = nullptr;
  std::uint64_t decode_seq_ = 0;  ///< fault-plan decision counters; both
  std::uint64_t alloc_seq_ = 0;   ///< advance serially (commit order)
};

}  // namespace vbs
