// Multi-tenant reconfiguration service: the online layer above
// ReconfigController.
//
// The controller is a synchronous, single-request device model; a chip
// serving many tenants sees *queues* of load / unload / relocate requests.
// ReconfigService adds:
//
//   admit   submit_* enqueues a request and returns immediately with an id.
//           When queue_limit is set, admission is bounded: a load arriving
//           at a full queue sheds either itself or the newest queued load
//           of strictly lower priority (typed kShed / kQueueFull result),
//           so a flood from one tenant cannot starve the others.
//   decode  drain() walks the queue in priority order (stable within a
//           priority, so the default configuration is plain admission
//           order); maximal runs of up to 16 consecutive loads are
//           devirtualized as one batch on the shared ThreadPool (entries
//           of all batched streams are one flat work list — decoding is
//           pure, so scheduling never affects results). Streams already in the
//           DecodedStreamCache (or duplicated within the batch) skip
//           devirtualization entirely.
//   commit  requests complete strictly in processing order; a task lands
//           at the allocator's first fit (row-major scan), and when a load
//           does not fit, the eviction planner (eviction.h) clears the
//           cheapest region and the victims are appended to the eviction
//           log. Hostile streams (malformed, undecodable, wrong
//           architecture) complete kFailed with a typed VbsErrc — they
//           never tear down the drain loop.
//   evict   both layers are bounded: the stream cache by capacity_bits
//           (LRU), the fabric by evict-to-fit victim selection.
//   faults  an injected FaultPlan (util/fault.h) makes decode failures,
//           allocation failures, cache drops and latency spikes part of
//           the model: transient injected faults are retried with
//           exponential backoff up to retry_limit, then complete kFailed
//           with kFaultInjected.
//
// Time is modeled in integer ticks (now_ticks()): each processed request
// costs one tick, injected latency spikes cost spike_ticks, and a retry
// backs off retry_backoff_ticks << (attempt-1). Deadlines (deadline_ticks)
// are checked against this clock, never the wall clock, so deadline
// misses are machine-independent and replayable.
//
// Determinism: for a fixed request sequence and fault plan the final
// config_memory(), all task ids, the eviction log, every status, every
// latency tick count and every counter except wall-clock seconds are
// byte-identical at any thread count — decode is pure per entry, and
// every decision (placement, eviction, cache order, shedding, fault
// rolls, deadlines) happens serially in processing order keyed by logical
// sequence numbers. A trace therefore replays identically at threads 1
// or 8 (tests/test_service.cpp holds this as a hard invariant, with and
// without a fault plan).
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "rtc/controller.h"
#include "rtc/service/journal.h"
#include "rtc/service/eviction.h"
#include "rtc/service/stream_cache.h"
#include "util/fault.h"
#include "util/thread_pool.h"

namespace vbs {

using RequestId = long long;
inline constexpr RequestId kNoRequest = -1;

enum class RequestKind { kLoad, kUnload, kRelocate };
enum class RequestStatus {
  kQueued,
  kDone,      ///< committed (for relocate: possibly a no-op)
  kRejected,  ///< no placement even after eviction, or target task gone
  kFailed,    ///< malformed stream, decode failure, or exhausted retries
  kShed,      ///< dropped at admission: queue full, outprioritized
  kDeadline,  ///< expired before processing (deadline_ticks exceeded)
};

/// Stable display name ("done", "shed", ...) for logs and benches.
const char* to_string(RequestStatus s);

struct RequestResult {
  RequestId request = kNoRequest;
  RequestKind kind = RequestKind::kLoad;
  RequestStatus status = RequestStatus::kQueued;
  TaskId task = kNoTask;  ///< task created (load) or affected
  Rect rect;              ///< final region of the task (load/relocate)
  int tenant = 0;
  int priority = 0;         ///< tenant priority captured at submit
  int attempts = 1;         ///< 1 + transient-fault retries consumed
  bool cache_hit = false;   ///< decode skipped (cache or batch duplicate)
  int evicted_tasks = 0;    ///< evict-to-fit victims this request caused
  VbsErrc code = VbsErrc::kNone;  ///< typed cause when not kDone
  long long latency_ticks = 0;    ///< submit -> completion, modeled ticks
  /// Latency decomposition on the modeled clock. The identity
  ///   latency_ticks == queue_wait_ticks + backoff_ticks
  ///                    + spike_ticks + exec_ticks
  /// holds exactly for every result (shed requests spend their whole life
  /// as queue wait; deadline expiries have no exec tick for the expired
  /// attempt), so the phases tile the request's lifetime — the trace
  /// export lays them out as adjacent spans on the tick timebase.
  long long queue_wait_ticks = 0;  ///< submit -> first processing
  long long backoff_ticks = 0;     ///< retry scheduling -> retry release
  long long spike_ticks = 0;       ///< injected latency spikes served
  long long exec_ticks = 0;        ///< one per attempt actually processed
  double latency_seconds = 0.0;   ///< submit -> commit wall time
  double decode_seconds = 0.0;    ///< devirtualization time spent on it
  std::string error;
};

struct ServiceStats {
  long long loads = 0, unloads = 0, relocates = 0;
  long long rejected = 0, failed = 0;
  /// Overload semantics: admissions shed, deadline expiries, transient
  /// fault retries, injected faults seen, modeled spike ticks served.
  long long shed = 0, deadline_misses = 0, retries = 0;
  long long faults_injected = 0, latency_spike_ticks = 0;
  /// Load requests that skipped devirtualization vs paid for it.
  long long warm_loads = 0, cold_loads = 0;
  /// Relocations served from cached payloads vs re-decoded.
  long long relocates_cached = 0, relocates_decoded = 0;
  long long batches = 0;         ///< parallel decode batches run
  long long task_evictions = 0;  ///< evict-to-fit unloads
  /// Devirtualization actually performed by the service (batch decodes and
  /// uncached relocations); cache hits add nothing here.
  DecodeStats decode;
};

/// Per-tenant slice of the service counters (QoS accounting).
struct TenantStats {
  int priority = 0;
  long long submitted = 0;
  long long done = 0, rejected = 0, failed = 0;
  long long shed = 0, deadline_misses = 0, retries = 0;
  /// Tick sums over this tenant's completed results: the per-tenant
  /// latency breakdown. latency_ticks == queue_wait + backoff + spike +
  /// exec, summed over results, by the RequestResult identity.
  long long latency_ticks = 0;
  long long queue_wait_ticks = 0, backoff_ticks = 0;
  long long spike_ticks = 0, exec_ticks = 0;
};

/// One evict-to-fit victim, in eviction order.
struct EvictionEvent {
  long long seq = 0;  ///< monotone across the service lifetime
  TaskId task = kNoTask;
  Rect rect;
  RequestId cause = kNoRequest;  ///< the load that needed the room
};

struct ServiceOptions {
  /// ThreadPool participants for batch devirtualization (1 = serial).
  int threads = 1;
  /// DecodedStreamCache capacity in payload bits; 0 disables caching.
  std::size_t cache_capacity_bits = std::size_t{64} << 20;
  /// Max load requests queued at once; 0 = unbounded (no shedding).
  std::size_t queue_limit = 0;
  /// Max modeled ticks a request may wait before processing; 0 = none.
  long long deadline_ticks = 0;
  /// Transient injected faults are retried this many times before kFailed.
  int retry_limit = 2;
  /// Base backoff in modeled ticks; doubles per attempt.
  long long retry_backoff_ticks = 1;
  /// Deterministic fault plan; default (all rates 0) injects nothing.
  FaultPlan faults;
};

class ReconfigService {
 public:
  ReconfigService(const ArchSpec& spec, int width, int height,
                  ServiceOptions opts = {});

  /// Enqueues a load of a serialized VBS on behalf of `tenant`. May shed
  /// (this request or a lower-priority queued load) when queue_limit is
  /// reached; the shed request still yields a kShed result from drain().
  RequestId submit_load(BitVector stream, int tenant = 0);
  /// Enqueues an unload/relocate of the task created by load request
  /// `load_request` (resolved at commit time; tolerant of the task having
  /// been evicted meanwhile — the request then completes kRejected).
  /// Never shed: they release capacity rather than consume it.
  RequestId submit_unload(RequestId load_request, int tenant = 0);
  RequestId submit_relocate(RequestId load_request, int tenant = 0);

  /// QoS weight for a tenant's future submissions (default 0; higher wins
  /// both queue admission and drain order).
  void set_tenant_priority(int tenant, int priority);

  std::size_t pending() const { return queue_.size(); }

  /// Processes the whole queue (including retries it spawns); returns one
  /// result per request — shed and expired ones included — in admission
  /// order.
  std::vector<RequestResult> drain();

  /// Task created by a completed load request, or kNoTask if the request
  /// failed / was rejected / the task is gone again.
  TaskId task_of(RequestId load_request) const;

  const ReconfigController& controller() const { return rtc_; }
  const DecodedStreamCache& cache() const { return cache_; }
  const ServiceStats& stats() const { return stats_; }
  /// Per-tenant counters, keyed by tenant id (created lazily on first
  /// submit or set_tenant_priority).
  const std::map<int, TenantStats>& tenant_stats() const { return tenants_; }
  const std::vector<EvictionEvent>& eviction_log() const {
    return eviction_log_;
  }

  /// The modeled clock: ticks consumed by all processing so far.
  long long now_ticks() const { return now_ticks_; }

  /// The id the next submit_* will be assigned (ids are sequential from
  /// 0). The RPC server hands this to its admin session at handshake so a
  /// wire client can predict service ids by counting its own submits.
  RequestId next_request_id() const { return next_request_; }
  /// Non-shed load requests currently queued (the queue_limit population).
  std::size_t live_loads() const { return live_loads_; }

  /// External fragmentation of the fabric right now: 1 - largest free
  /// rectangle / total free area (0 when empty or unfragmented).
  double fragmentation() const;

  const ServiceOptions& options() const { return opts_; }

  // --- durability (rtc/service/journal.h) ------------------------------------
  //
  // With a journal attached, every mutation (submit_*, set_tenant_priority,
  // a non-empty drain) is applied in memory and then appended as a
  // checksummed WAL record; recover(dir) replays the durable prefix onto
  // the last snapshot and is byte-identical — config memory, task ids,
  // eviction log, tenant stats, modeled clock — to the uninterrupted run
  // at any thread count (state_fingerprint covers exactly that contract).

  /// What recover() found and replayed.
  struct RecoveryInfo {
    long long admits = 0;   ///< admit/priority records replayed
    long long commits = 0;  ///< drain commits replayed
    long long records = 0;  ///< total WAL records, open/barrier included
    bool torn_tail = false; ///< an incomplete trailing record was dropped
    bool from_snapshot = false;
    std::uint64_t epoch = 0;
    std::uint64_t journal_bytes = 0;  ///< WAL size after truncation
  };

  /// Attaches a fresh write-ahead journal rooted at `dir` (the directory
  /// is created; stale journal files in it are removed). Must be called on
  /// a freshly-constructed service: the journal's base record captures the
  /// service *configuration*, and pre-existing state would not be replayed.
  /// `io_faults` is the journal's own I/O fault plan — deliberately
  /// distinct from options().faults (the model plan), so recovery can
  /// reattach without re-injecting the crash that killed its predecessor;
  /// nullptr injects nothing. On a journal I/O failure the failed append
  /// is truncated away, the journal detaches (journaled() turns false) and
  /// the typed error is rethrown — the in-memory operation stays applied.
  void open_journal(const std::string& dir,
                    const FaultPlan* io_faults = nullptr);
  /// Snapshot + truncate compaction (journal.h). Requires journaled().
  void compact_journal();
  bool journaled() const { return journal_ != nullptr; }
  /// Journal I/O ops so far — the crash-plan sweep bound. 0 when detached.
  long long journal_io_ops() const {
    return journal_ ? journal_->io_ops() : 0;
  }

  /// Rebuilds a service from a journal directory: restores the snapshot
  /// (if any), replays the WAL, verifies every commit fingerprint, drops a
  /// torn tail, and reattaches the journal for continued appends (with no
  /// I/O injection). `threads` overrides the journaled thread count when
  /// > 0 — recovered state is thread-count-invariant by the determinism
  /// contract. Throws VbsError{kBadJournal} on structural corruption.
  static std::unique_ptr<ReconfigService> recover(const std::string& dir,
                                                  int threads = 0,
                                                  RecoveryInfo* info = nullptr);

  /// Order-sensitive fingerprint of every replay-deterministic piece of
  /// state: configuration memory, tasks and their records, the decoded-
  /// stream cache (keys, order, counters), queue contents, tenant stats,
  /// eviction log, all serial counters and the modeled clock. It walks the
  /// same field list as the snapshot (walk_state), minus the snapshot-only
  /// fields (task images, threads_used, cache payloads and their decode
  /// stats; queued streams fold as content hashes), plus two derived
  /// values (the cache's size_bits and each entry's footprint). Wall-clock
  /// fields are excluded. This is the value kCommit records carry and the
  /// crash harness compares.
  std::uint64_t state_fingerprint() const;

 private:
  struct Request {
    RequestId id = kNoRequest;
    RequestKind kind = RequestKind::kLoad;
    BitVector stream;               ///< loads only
    RequestId target = kNoRequest;  ///< unload/relocate: the load request
    int tenant = 0;
    int priority = 0;           ///< captured at submit time
    int attempt = 1;            ///< 1 on admission, +1 per retry
    bool shed = false;          ///< dropped at admission, result pending
    long long submitted_tick = 0;
    long long not_before = 0;   ///< retry backoff release tick
    long long retry_tick = 0;   ///< tick the latest retry was scheduled at
    /// Phase accumulators carried across retry attempts; finish() copies
    /// them onto the result (see RequestResult for the tick identity).
    long long queue_wait_ticks = 0, backoff_ticks = 0;
    long long spike_ticks = 0, exec_ticks = 0;
    std::uint64_t submitted_ns = 0;  ///< telemetry clock, wall latency only
  };

  /// Loaded-task bookkeeping the controller does not track.
  struct TaskInfo {
    std::uint64_t content_hash = 0;
    std::uint64_t last_use = 0;  ///< request sequence, for victim selection
    RequestId origin_request = kNoRequest;
  };

  Request make_request(RequestKind kind, int tenant);
  /// submit_unload and submit_relocate: a request naming a load request.
  RequestId submit_targeted(RequestKind kind, RequestId load_request,
                            int tenant);
  /// Bounded admission: sheds the newest lowest-priority queued load (or
  /// the incoming one) when the live-load count hits queue_limit.
  void admit_load(Request req);
  void shed_request(Request& req);

  void process_load_batch(const std::vector<Request*>& batch,
                          std::vector<RequestResult>& out);
  void process_unload(Request& req, std::vector<RequestResult>& out);
  void process_relocate(Request& req, std::vector<RequestResult>& out);
  /// Sets the gauge service.decoder_bytes to the largest retained_bytes()
  /// of any rank's decoder set (when telemetry is enabled).
  void publish_decoder_bytes() const;
  /// Chooses an origin, evicting victims if allowed; fills result's
  /// eviction fields. Returns nullopt when the load must be rejected.
  std::optional<Point> admit_placement(int w, int h, RequestId cause,
                                       RequestResult& res);
  void forget_task(TaskId id);
  RequestResult make_result(const Request& req) const;
  /// Stamps latency, folds the result into the per-tenant counters and
  /// appends it.
  void finish(const Request& req, RequestResult res,
              std::vector<RequestResult>& out);
  /// Advances the modeled clock for one processed request (backoff
  /// release, injected spike, the one-tick service cost) and attributes
  /// the elapsed ticks to the request's phase accumulators. Returns false
  /// — after emitting the kDeadline result — when the request expired.
  bool tick_and_check_deadline(Request& req,
                               std::vector<RequestResult>& out);
  /// Requeues a transient-fault victim for retry; returns false (caller
  /// emits the permanent kFailed result) when retries are exhausted.
  bool schedule_retry(const Request& req);

  /// Full service configuration (arch, fabric, options) — the journal's
  /// kOpen payload and the head of every snapshot.
  std::string serialize_open() const;
  /// Whole-state snapshot payload: serialize_open(), then walk_state —
  /// the walk state_fingerprint takes, with the bulk data needed to
  /// rebuild the state (task images and threads_used, cache payloads and
  /// their decode stats, queued streams). Wall-clock fields are left out.
  BitVector serialize_snapshot() const;
  /// Rebuilds a service from a snapshot payload (static: the payload's
  /// open section decides the construction parameters), reading it back
  /// through the same walk.
  static std::unique_ptr<ReconfigService> restore_snapshot(
      const BitVector& snapshot, int threads);
  /// The one list of the durable state (service.cpp): every replay-
  /// deterministic field, in snapshot order, through archive `ar`.
  template <class Ar, class Svc>
  static void walk_state(Ar& ar, Svc& svc);
  /// A fresh service from a kOpen payload. Like restore_snapshot it may
  /// throw any error on a corrupt payload; recover() types them all as
  /// kBadJournal.
  static std::unique_ptr<ReconfigService> construct_from_open(
      const std::string& open_payload, int threads);
  /// Runs one journal write (append, append2, compact), detaching the
  /// journal on a (typed) I/O failure before rethrowing it.
  template <class Write>
  void journal_write(Write write);
  void journal_append(ServiceJournal::Kind kind, const std::string& payload);

  ReconfigController rtc_;
  ServiceOptions opts_;
  DecodedStreamCache cache_;
  ThreadPool pool_;
  /// One decoder set per pool rank, kept for the service's life and
  /// bounded per rank (RegionDecoderCache::kMaxShapes, kMaxBytes).
  std::vector<RegionDecoderCache> decoders_;

  std::deque<Request> queue_;
  std::size_t live_loads_ = 0;  ///< non-shed load requests in queue_
  RequestId next_request_ = 0;
  std::uint64_t use_seq_ = 0;
  long long now_ticks_ = 0;
  std::map<int, int> tenant_priority_;
  std::map<int, TenantStats> tenants_;
  std::map<RequestId, TaskId> task_of_request_;
  std::map<TaskId, TaskInfo> task_info_;
  std::vector<EvictionEvent> eviction_log_;
  ServiceStats stats_;
  /// Request shed by the most recent submit_load (kNoRequest if none):
  /// what the journal's kShed companion record asserts on replay.
  RequestId last_shed_ = kNoRequest;
  std::unique_ptr<ServiceJournal> journal_;
};

}  // namespace vbs
