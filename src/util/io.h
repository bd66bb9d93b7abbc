// Crash-consistent file I/O: an AtomicFile writer (temp file -> flush/fsync
// -> rename) and deterministic fault injection for every I/O operation.
//
// Durability discipline used across the repo:
//   - whole-file artifacts (VBS2 streams, vbs.artifact.v1 containers,
//     netlists, flow meta) are written through AtomicFile, so a reader
//     only ever observes the old file, the new file, or an orphaned "*.tmp"
//     it may delete — never a half-written file under the real name;
//   - the service journal (rtc/service/journal.h) appends through
//     append_bytes, accepting torn tails and relying on record checksums to
//     find the last complete record.
//
// Fault injection mirrors util/fault.h: an IoFaultInjector wraps a FaultPlan
// and numbers every I/O operation (write, fsync, rename, remove) with one
// global serial op counter. The plan's write/sync/rename rates inject typed
// failures (kTornWrite / kFaultInjected) as pure functions of
// (seed, site, op); crash=N simulates process death at the Nth op by
// throwing CrashInjected — deliberately NOT a std::exception, so no
// intermediate catch(std::exception) recovery path can swallow it and the
// "process" dies with whatever bytes the preceding ops made durable.
// Sweeping N across [0, total_ops) kills the run at every I/O site once.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "util/fault.h"

namespace vbs {

/// Simulated process death, thrown by an IoFaultInjector whose plan says
/// crash=N once the Nth I/O operation is reached. Intentionally not derived
/// from std::exception: only a crash harness frame catches it.
struct CrashInjected {
  long long op;      ///< global I/O op index the crash fired at
  const char* site;  ///< "write" / "sync" / "rename" / "remove"
};

/// Numbers I/O operations and applies a FaultPlan's I/O sites to them.
/// One injector models one process: its op counter is the global serial
/// I/O schedule a crash plan indexes into. Not thread-safe by design —
/// all durable I/O below funnels through serial code.
class IoFaultInjector {
 public:
  /// `plan` may be null or disabled (every op is then a no-op). The plan is
  /// borrowed, not copied, so a harness can retune it between runs.
  explicit IoFaultInjector(const FaultPlan* plan) : plan_(plan) {}

  /// Ops performed so far; the sweep bound for crash plans.
  long long ops() const { return ops_; }

  /// Decision for one write op: when `torn` or `crash` is set the caller
  /// writes only a prefix of its buffer, then throws kTornWrite
  /// (resp. CrashInjected) — checked_write implements exactly that.
  struct WriteOutcome {
    long long op;
    bool torn;
    bool crash;
  };
  WriteOutcome on_write();
  /// Throw CrashInjected / VbsError(kFaultInjected) when the plan says so.
  void on_sync();
  void on_rename();
  void on_remove();

  const FaultPlan* plan() const { return plan_; }

 private:
  long long next_op(const char* site);

  const FaultPlan* plan_ = nullptr;
  long long ops_ = 0;
};

/// Thread-local injector used by code paths without explicit plumbing
/// (FlowPipeline checkpoints). Defaults to null (no injection).
IoFaultInjector* current_io_faults();

/// RAII scope installing `inj` as the thread-local injector.
class ScopedIoFaults {
 public:
  explicit ScopedIoFaults(IoFaultInjector* inj);
  ~ScopedIoFaults();
  ScopedIoFaults(const ScopedIoFaults&) = delete;
  ScopedIoFaults& operator=(const ScopedIoFaults&) = delete;

 private:
  IoFaultInjector* prev_;
};

/// Writes `n` bytes to fd with injection: a torn-write fault writes a
/// prefix then throws VbsError(kTornWrite); a crash op writes a prefix then
/// throws CrashInjected (the torn bytes ARE on disk, as after real death
/// mid-write). Real short writes/EINTR are retried; real errors throw
/// std::runtime_error.
void checked_write(int fd, const void* data, std::size_t n,
                   const std::string& path, IoFaultInjector* faults);

/// fsync(fd) with injection: sync-fault throws VbsError(kFaultInjected), a
/// crash op throws CrashInjected *before* the fsync (bytes written but not
/// durably synced — our model treats completed write() calls as durable,
/// so the crash point is "after data, before the caller learns it's safe").
void checked_sync(int fd, const std::string& path, IoFaultInjector* faults);

/// rename(from, to) with injection (fault -> kFaultInjected, crash before
/// the rename so the temp file survives as an orphan).
void checked_rename(const std::string& from, const std::string& to,
                    IoFaultInjector* faults);

/// remove(path) with injection (crash-only site; never fails otherwise —
/// a missing file is fine).
void checked_remove(const std::string& path, IoFaultInjector* faults);

/// Appends `data` to `path` (creating it if needed) with write+sync
/// injection: one write op, one sync op. The journal's append primitive.
void append_bytes(const std::string& path, const std::string& data,
                  IoFaultInjector* faults);

/// Reads the whole of `path`; throws std::runtime_error when it cannot be
/// opened or read. The one whole-file read under every container reader.
std::string read_file(const std::string& path);

/// Atomic whole-file replacement: writes to `path + ".tmp"`, then
/// commit() fsyncs and renames over `path`. If the writer dies before
/// commit() the real file is untouched; the destructor removes the temp
/// unless a crash was injected mid-write (simulated death leaves orphans,
/// like real death would). An existing `path` that is not a regular file
/// (a device such as /dev/null, a pipe) is written in place instead.
class AtomicFile {
 public:
  /// Opens `path + ".tmp"` for writing. `faults` defaults to the
  /// thread-local injector when null.
  explicit AtomicFile(const std::string& path,
                      IoFaultInjector* faults = nullptr);
  ~AtomicFile();
  AtomicFile(const AtomicFile&) = delete;
  AtomicFile& operator=(const AtomicFile&) = delete;

  void write(const void* data, std::size_t n);
  void write(const std::string& bytes) { write(bytes.data(), bytes.size()); }

  /// fsync + close + rename into place. Call exactly once, last.
  void commit();

 private:
  std::string path_;
  std::string tmp_path_;
  int fd_ = -1;
  IoFaultInjector* faults_ = nullptr;
  bool committed_ = false;
  bool crashed_ = false;
  bool in_place_ = false;
};

}  // namespace vbs
