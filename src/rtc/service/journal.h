// Write-ahead journal for ReconfigService: the durability substrate under
// ReconfigService::recover (service.h).
//
// A journal directory holds
//
//   journal.wal   4-byte magic "VJL1", then checksummed, length-prefixed
//                 records (framing below)
//   snap.<epoch>  at most one state snapshot, a vbs.artifact.v1 container
//                 (ArtifactStage::kServiceSnapshot) whose fingerprint is
//                 the service's state_fingerprint at capture time
//
// Record framing, and every record payload, is coded by the shared byte
// codec (util/bytes.h: put_u32/u64/str/bits, read back through a
// ByteReader that throws kBadJournal):
//
//   bytes 0-3   payload byte length, u32
//   byte  4     record kind (Kind)
//   bytes 5-    payload
//   + 8 bytes   check, u64: FNV-1a over the kind byte then the payload
//               bytes, then the payload length folded in (hash_u64) — the
//               same hash family as the codec's content_hash
//
// The WAL's first record is kOpen (full service configuration; a journal
// started fresh) or kSnapshotBarrier (the epoch whose snap.<epoch> file is
// the recovery base; written by compaction). Every service mutation
// appends after it *after* applying in memory — sound, because memory has
// no durable side channel: a crash discards memory and recovery replays
// exactly the durable record prefix.
//
// Torn-tail discipline: scan() accepts an incomplete trailing record
// (bytes missing at EOF — what process death mid-append leaves), drops it
// and truncates the file back to the last complete record. Anything worse
// — bad magic, a checksum mismatch on a complete record, an unknown kind,
// a barrier without its snapshot — throws VbsError{kBadJournal}: the
// journal is structurally corrupt and must not be half-applied.
//
// Compaction (compact()) writes snap.<epoch+1> atomically, atomically
// resets the WAL to magic + kSnapshotBarrier(epoch+1), then removes the
// old snapshot. Every intermediate crash recovers: the WAL's first record
// names the snapshot that counts, and scan() deletes orphaned "*.tmp" and
// non-current "snap.*" files.
//
// All journal I/O is injectable (util/io.h): the journal owns an
// IoFaultInjector whose op counter numbers every write/sync/rename/remove
// it performs — including snapshot writes — so a crash plan (crash=N)
// sweeps the whole durability surface (tools/vbscrash.cpp).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "util/bitvector.h"
#include "util/fault.h"
#include "util/io.h"

namespace vbs {

class ServiceJournal {
 public:
  /// Stable on-disk record tags: append only, never renumber.
  enum class Kind : std::uint8_t {
    kOpen = 0,            ///< full service configuration (fresh journal)
    kSnapshotBarrier = 1, ///< epoch of the snapshot recovery base
    kAdmitLoad = 2,       ///< submit_load: id, tenant, stream
    kAdmitUnload = 3,     ///< submit_unload: id, target, tenant
    kAdmitRelocate = 4,   ///< submit_relocate: id, target, tenant
    kSetPriority = 5,     ///< set_tenant_priority: tenant, priority
    kShed = 6,            ///< admission shed the named request (companion
                          ///< of the kAdmitLoad in the same append)
    kCommit = 7,          ///< drain() completed: state fingerprint
  };

  struct Record {
    Kind kind;
    std::string payload;
  };

  struct ScanResult {
    std::vector<Record> records;  ///< every complete record, in order
    bool torn_tail = false;       ///< an incomplete tail was dropped
    std::uint64_t wal_bytes = 0;  ///< WAL size after torn-tail truncation
    std::uint64_t epoch = 0;      ///< 0 when the WAL starts with kOpen
    std::string snapshot_path;    ///< empty when recovering from kOpen
  };

  /// Starts a fresh journal in `dir`: creates the directory, removes any
  /// stale journal files, and atomically writes magic + kOpen(open_payload).
  /// `io_plan` is copied; it is the journal's own I/O fault plan, distinct
  /// from the service's model-fault plan (recovery must be able to reattach
  /// without re-injecting the crash that killed the predecessor).
  ServiceJournal(const std::string& dir, const FaultPlan& io_plan,
                 const std::string& open_payload);

  /// Reattaches to an existing journal after recovery: no writes, no
  /// injection (a disabled plan).
  struct AttachTag {};
  ServiceJournal(AttachTag, const std::string& dir, std::uint64_t epoch);

  ServiceJournal(const ServiceJournal&) = delete;
  ServiceJournal& operator=(const ServiceJournal&) = delete;

  /// Appends one record (one write op + one sync op). An injected
  /// write/sync failure truncates the torn bytes and retries once; a
  /// second failure truncates and rethrows (the WAL stays a clean prefix
  /// of complete records either way). CrashInjected always propagates —
  /// with the torn tail on disk, as real death would leave it.
  void append(Kind kind, const std::string& payload);
  /// Appends two records in ONE write+sync — the kAdmitLoad + kShed pair,
  /// so a torn append can only lose the shed companion, never reorder it.
  void append2(Kind k1, const std::string& p1, Kind k2, const std::string& p2);

  /// Snapshot + truncate compaction; `fingerprint` is the service's
  /// state_fingerprint for the snapshot artifact header.
  void compact(const BitVector& snapshot, std::uint64_t fingerprint);

  std::uint64_t epoch() const { return epoch_; }
  const std::string& dir() const { return dir_; }
  /// I/O ops performed so far — the sweep bound for crash plans.
  long long io_ops() const { return inj_.ops(); }

  /// Scans `dir`: verifies framing, drops + truncates a torn tail, cleans
  /// orphaned "*.tmp" and non-current "snap.*" files, and enforces the
  /// structural invariants (magic; first record kOpen or kSnapshotBarrier,
  /// neither anywhere else; barrier's snapshot present). Throws
  /// VbsError{kBadJournal} on any violation.
  static ScanResult scan(const std::string& dir);

  /// Reads a snapshot artifact; a container VbsError is rethrown as
  /// kBadJournal.
  static BitVector read_snapshot(const std::string& path,
                                 std::uint64_t* fingerprint_out);

 private:
  std::string wal_path() const;
  std::string snapshot_path(std::uint64_t epoch) const;
  void append_raw(const std::string& bytes);

  std::string dir_;
  FaultPlan io_plan_;
  IoFaultInjector inj_;
  std::uint64_t epoch_ = 0;
};

}  // namespace vbs
