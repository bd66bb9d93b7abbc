// Small work-stealing thread pool for deterministic fork/join parallelism.
//
// The pool owns `threads - 1` worker threads; the caller participates as
// rank 0, so `ThreadPool(1)` spawns nothing and parallel_for degenerates to
// a plain loop. parallel_for splits [0, n) into one contiguous block per
// participant; each participant pops indices from the front of its own
// block and, when empty, steals the back half of a victim's remaining
// block. Stealing keeps the load balanced under skewed per-item costs
// (e.g. one hard net among many easy ones) without any up-front cost model.
//
// Scheduling order is nondeterministic; callers that need reproducible
// results must make item tasks independent and merge them in a fixed order
// afterwards (see ReconfigService's batched decode).
// parallel_for is fork/join: it returns only after every index has run, so
// data written by tasks is visible to the caller afterwards. One job at a
// time: the pool must not be entered concurrently from two threads.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

namespace vbs {

class ThreadPool {
 public:
  /// `threads` is the total participant count including the caller;
  /// clamped below at 1.
  explicit ThreadPool(int threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total participants (workers + the calling thread).
  int size() const { return static_cast<int>(workers_.size()) + 1; }

  /// Runs fn(rank, index) for every index in [0, n) and waits for all of
  /// them. `rank` is in [0, size()) and is stable within one item, so it
  /// can index per-thread scratch arenas. The first exception thrown by an
  /// item is rethrown here (remaining items may be skipped).
  void parallel_for(std::size_t n,
                    const std::function<void(int, std::size_t)>& fn);

 private:
  /// One participant's remaining index block, [lo, hi).
  struct Shard {
    std::mutex m;
    std::size_t lo = 0;
    std::size_t hi = 0;
  };

  void worker_main(int rank);
  /// Runs items until neither the own shard nor any victim has work left.
  void drain(int rank, const std::function<void(int, std::size_t)>& fn);
  bool next_index(int rank, std::size_t* out);

  std::vector<std::thread> workers_;
  std::vector<std::unique_ptr<Shard>> shards_;

  std::mutex m_;
  std::condition_variable work_cv_;
  std::condition_variable done_cv_;
  const std::function<void(int, std::size_t)>* job_ = nullptr;
  std::uint64_t job_id_ = 0;
  std::size_t unfinished_ = 0;  ///< items not yet executed (or abandoned)
  int active_workers_ = 0;      ///< workers currently inside drain()
  bool stop_ = false;
  std::exception_ptr error_;
  bool abort_ = false;  ///< set on first error: remaining items are skipped
};

}  // namespace vbs
