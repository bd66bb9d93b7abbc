#include "rtc/service/journal.h"

#include <filesystem>
#include <system_error>

#include "flow/artifact_io.h"
#include "util/bytes.h"
#include "util/error.h"
#include "util/hash.h"
#include "util/telemetry.h"

namespace vbs {

namespace fs = std::filesystem;

namespace {

constexpr std::string_view kMagic = "VJL1";
constexpr char kWalFile[] = "journal.wal";
constexpr char kSnapPrefix[] = "snap.";
constexpr std::uint8_t kMaxKind =
    static_cast<std::uint8_t>(ServiceJournal::Kind::kCommit);
// 4-byte length + kind byte + 8-byte check: the smallest complete record.
constexpr std::size_t kRecordOverhead = 13;

[[noreturn]] void bad(const std::string& what) {
  throw VbsError(VbsErrc::kBadJournal, "journal: " + what);
}

std::uint64_t record_check(std::uint8_t kind, std::string_view payload) {
  std::uint64_t h = fnv1a64(&kind, 1);
  h = fnv1a64(payload.data(), payload.size(), h);
  return hash_u64(h, payload.size());
}

std::string frame_record(ServiceJournal::Kind kind,
                         const std::string& payload) {
  std::string out;
  out.reserve(kRecordOverhead + payload.size());
  put_u32(out, static_cast<std::uint32_t>(payload.size()));
  put_u8(out, static_cast<std::uint8_t>(kind));
  out.append(payload);
  put_u64(out, record_check(static_cast<std::uint8_t>(kind), payload));
  return out;
}

/// Parses the epoch suffix of a "snap.<epoch>" filename; -1 if not one.
long long snap_epoch_of(const std::string& name) {
  const std::string prefix = kSnapPrefix;
  if (name.size() <= prefix.size() || name.compare(0, prefix.size(), prefix)) {
    return -1;
  }
  long long epoch = 0;
  for (std::size_t i = prefix.size(); i < name.size(); ++i) {
    if (name[i] < '0' || name[i] > '9') return -1;
    epoch = epoch * 10 + (name[i] - '0');
  }
  return epoch;
}

}  // namespace

// --- lifecycle ---------------------------------------------------------------

ServiceJournal::ServiceJournal(const std::string& dir, const FaultPlan& plan,
                               const std::string& open_payload)
    : dir_(dir), io_plan_(plan), inj_(&io_plan_) {
  fs::create_directories(dir_);
  for (const auto& entry : fs::directory_iterator(dir_)) {
    const std::string name = entry.path().filename().string();
    if (name == kWalFile || snap_epoch_of(name) >= 0 ||
        entry.path().extension() == ".tmp") {
      fs::remove(entry.path());
    }
  }
  std::string bytes(kMagic);
  bytes.append(frame_record(Kind::kOpen, open_payload));
  AtomicFile wal(wal_path(), &inj_);
  wal.write(bytes);
  wal.commit();
}

ServiceJournal::ServiceJournal(AttachTag, const std::string& dir,
                               std::uint64_t epoch)
    : dir_(dir), io_plan_(), inj_(&io_plan_), epoch_(epoch) {}

std::string ServiceJournal::wal_path() const { return dir_ + "/" + kWalFile; }

std::string ServiceJournal::snapshot_path(std::uint64_t epoch) const {
  return dir_ + "/" + kSnapPrefix + std::to_string(epoch);
}

// --- appends -----------------------------------------------------------------

void ServiceJournal::append_raw(const std::string& bytes) {
  TELEM_SPAN("journal", "append");
  telem::counter_add("journal.append.ops");
  telem::counter_add("journal.append.bytes",
                     static_cast<long long>(bytes.size()));
  const std::uint64_t before = fs::file_size(wal_path());
  for (int attempt = 0;; ++attempt) {
    try {
      append_bytes(wal_path(), bytes, &inj_);
      return;
    } catch (const VbsError&) {
      // Injected write/sync failure: drop whatever landed so the WAL stays
      // a clean prefix of complete records, then retry once (transient I/O
      // error semantics). CrashInjected is not a VbsError and propagates
      // with the torn tail on disk, exactly as real death would leave it.
      std::error_code ec;
      fs::resize_file(wal_path(), before, ec);
      telem::counter_add("journal.append.retries");
      if (attempt == 1) throw;
    }
  }
}

void ServiceJournal::append(Kind kind, const std::string& payload) {
  append_raw(frame_record(kind, payload));
}

void ServiceJournal::append2(Kind k1, const std::string& p1, Kind k2,
                             const std::string& p2) {
  append_raw(frame_record(k1, p1) + frame_record(k2, p2));
}

void ServiceJournal::compact(const BitVector& snapshot,
                             std::uint64_t fingerprint) {
  TELEM_SPAN("journal", "compact");
  telem::counter_add("journal.compactions");
  const std::uint64_t old_epoch = epoch_;
  const std::uint64_t new_epoch = epoch_ + 1;
  {
    // The snapshot artifact and the WAL reset both go through AtomicFile
    // with the journal's own injector, so every compaction step is a
    // numbered crash site. Crash windows all recover: until the WAL rename
    // lands, the old WAL (which fully covers the snapshotted state) is the
    // recovery base and a newer snap is an orphan scan() cleans up.
    ScopedIoFaults scope(&inj_);
    write_artifact_file(snapshot_path(new_epoch),
                        ArtifactStage::kServiceSnapshot, fingerprint,
                        snapshot);
  }
  std::string bytes(kMagic);
  std::string barrier;
  put_u64(barrier, new_epoch);
  bytes.append(frame_record(Kind::kSnapshotBarrier, barrier));
  AtomicFile wal(wal_path(), &inj_);
  wal.write(bytes);
  wal.commit();
  epoch_ = new_epoch;
  if (old_epoch != 0) checked_remove(snapshot_path(old_epoch), &inj_);
}

// --- scan --------------------------------------------------------------------

ServiceJournal::ScanResult ServiceJournal::scan(const std::string& dir) {
  const std::string path = dir + "/" + kWalFile;
  std::string data;
  try {
    data = read_file(path);
  } catch (const std::runtime_error&) {
    bad("missing journal.wal in " + dir);
  }
  if (std::string_view(data).substr(0, kMagic.size()) != kMagic) {
    bad("bad magic: " + path);
  }

  ScanResult out;
  ByteReader r(data, VbsErrc::kBadJournal, "journal");
  r.take(kMagic.size());
  std::size_t last_good = r.pos();
  while (r.remaining() >= kRecordOverhead) {  // else: torn tail
    const std::size_t at = r.pos();
    const std::uint32_t len = r.u32();
    if (r.remaining() < static_cast<std::size_t>(len) + 9) {
      break;  // record extends past EOF: torn tail
    }
    const std::uint8_t kind = r.u8();
    const std::string_view payload = r.take(len);
    // A complete record with a bad check is corruption, not a torn append:
    // appends only ever truncate bytes off the end.
    if (r.u64() != record_check(kind, payload)) {
      bad("record checksum mismatch at offset " + std::to_string(at));
    }
    if (kind > kMaxKind) {
      bad("unknown record kind at offset " + std::to_string(at));
    }
    out.records.push_back(
        Record{static_cast<Kind>(kind), std::string(payload)});
    last_good = r.pos();
  }
  if (last_good < data.size()) {
    out.torn_tail = true;
    std::error_code ec;
    fs::resize_file(path, last_good, ec);
  }
  out.wal_bytes = last_good;

  if (out.records.empty()) bad("no records: " + path);
  for (std::size_t i = 0; i < out.records.size(); ++i) {
    const Kind k = out.records[i].kind;
    const bool head = k == Kind::kOpen || k == Kind::kSnapshotBarrier;
    if (i == 0 && !head) bad("first record is not open/barrier");
    if (i != 0 && head) bad("open/barrier record mid-stream");
  }
  if (out.records.front().kind == Kind::kSnapshotBarrier) {
    ByteReader r(out.records.front().payload, VbsErrc::kBadJournal,
                 "journal barrier");
    out.epoch = r.u64();
    r.expect_end("barrier");
    if (out.epoch == 0) bad("barrier epoch 0");
    const std::string snap =
        dir + "/" + kSnapPrefix + std::to_string(out.epoch);
    if (!fs::exists(snap)) bad("missing snapshot: " + snap);
    out.snapshot_path = snap;
  }

  // Orphan cleanup: "*.tmp" from interrupted atomic writes, and snapshots
  // the current WAL does not reference (either side of a compaction crash).
  for (const auto& entry : fs::directory_iterator(dir)) {
    const std::string name = entry.path().filename().string();
    if (entry.path().extension() == ".tmp") {
      fs::remove(entry.path());
      continue;
    }
    const long long epoch = snap_epoch_of(name);
    if (epoch >= 0 && static_cast<std::uint64_t>(epoch) != out.epoch) {
      fs::remove(entry.path());
    }
  }
  return out;
}

BitVector ServiceJournal::read_snapshot(const std::string& path,
                                        std::uint64_t* fingerprint_out) {
  try {
    return read_artifact_file(path, ArtifactStage::kServiceSnapshot, nullptr,
                              fingerprint_out);
  } catch (const VbsError& e) {
    bad(std::string("snapshot: ") + e.what());
  }
}

}  // namespace vbs
