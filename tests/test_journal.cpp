// Durability tests: AtomicFile semantics, WAL framing and torn-tail
// discipline, snapshot compaction, injected I/O failure handling, and
// crash-then-recover smoke. The full kill-at-every-site sweep lives in
// tools/vbscrash.cpp; the recovery-determinism contract (recovered state
// byte-identical to the uninterrupted run at threads {1,2,8}) is asserted
// in tests/test_service.cpp.
#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <set>

#include "flow/flow.h"
#include "hex.h"
#include "netlist/generator.h"
#include "rtc/service/journal.h"
#include "rtc/service/service.h"
#include "util/bytes.h"
#include "util/hash.h"
#include "util/io.h"
#include "vbs/encoder.h"

namespace vbs {
namespace {

namespace fs = std::filesystem;

struct TempDir {
  explicit TempDir(const std::string& tag) {
    path = (fs::temp_directory_path() /
            ("vbs_journal_" + tag + "_" + std::to_string(::getpid())))
               .string();
    fs::remove_all(path);
  }
  ~TempDir() { fs::remove_all(path); }
  std::string path;
};

ArchSpec test_arch() {
  ArchSpec arch;
  arch.chan_width = 8;
  return arch;
}

BitVector make_stream(int n_lut, int grid, std::uint64_t seed) {
  GenParams p;
  p.n_lut = n_lut;
  p.n_pi = 3;
  p.n_po = 3;
  p.seed = seed;
  FlowOptions o;
  o.arch = test_arch();
  o.seed = seed;
  FlowResult r = run_flow(generate_netlist(p), grid, grid, o);
  EXPECT_TRUE(r.routed());
  EncodeOptions eo;
  return serialize_vbs(encode_vbs(*r.fabric, r.netlist, r.packed, r.placement,
                                  r.routing.routes, eo));
}

const std::vector<BitVector>& test_streams() {
  static const std::vector<BitVector> streams = {
      make_stream(8, 4, 11), make_stream(10, 4, 12), make_stream(12, 4, 13)};
  return streams;
}

ServiceOptions small_opts(int threads) {
  ServiceOptions o;
  o.threads = threads;
  o.cache_capacity_bits = std::size_t{1} << 20;
  o.queue_limit = 4;
  o.deadline_ticks = 64;
  return o;
}

/// A scripted mixed workload: repeated/new loads across tenants,
/// a relocate, an unload, a priority change, several drains.
std::uint64_t run_scripted(ReconfigService& svc, int compact_rounds = 0) {
  const auto& streams = test_streams();
  std::vector<RequestId> loads;
  svc.set_tenant_priority(1, 5);
  for (int round = 0; round < 4; ++round) {
    for (int i = 0; i < static_cast<int>(streams.size()); ++i) {
      loads.push_back(svc.submit_load(
          streams[static_cast<std::size_t>((i + round) % 3)], i % 3));
    }
    svc.drain();
    if (round == 1) {
      svc.submit_relocate(loads[0], 0);
      svc.submit_unload(loads[1], 1);
      svc.drain();
    }
    if (compact_rounds != 0 && svc.journaled() &&
        round % compact_rounds == 1) {
      svc.compact_journal();
    }
  }
  return svc.state_fingerprint();
}

// --- AtomicFile --------------------------------------------------------------

TEST(AtomicFileTest, CommitPublishesAbandonCleansUp) {
  TempDir dir("atomic");
  fs::create_directories(dir.path);
  const std::string path = dir.path + "/out.bin";
  {
    AtomicFile f(path);
    f.write(std::string("hello"));
    // Not yet visible under the final name.
    EXPECT_FALSE(fs::exists(path));
    EXPECT_TRUE(fs::exists(path + ".tmp"));
    f.commit();
  }
  EXPECT_TRUE(fs::exists(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  {
    AtomicFile f(path);
    f.write(std::string("partial replacement"));
    // Abandoned (e.g. an exception unwound past it): temp removed, the
    // committed content untouched.
  }
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  std::ifstream is(path, std::ios::binary);
  std::string content((std::istreambuf_iterator<char>(is)),
                      std::istreambuf_iterator<char>());
  EXPECT_EQ(content, "hello");
}

TEST(AtomicFileTest, InjectedCrashLeavesTempBehind) {
  TempDir dir("atomic_crash");
  fs::create_directories(dir.path);
  const std::string path = dir.path + "/out.bin";
  FaultPlan plan = FaultPlan::parse("crash=0");
  IoFaultInjector inj(&plan);
  bool crashed = false;
  try {
    AtomicFile f(path, &inj);
    f.write(std::string("doomed bytes"));
    f.commit();
  } catch (const CrashInjected& c) {
    crashed = true;
    EXPECT_EQ(c.op, 0);
  }
  EXPECT_TRUE(crashed);
  // Real process death leaves the temp file; the final name never appears.
  EXPECT_FALSE(fs::exists(path));
  EXPECT_TRUE(fs::exists(path + ".tmp"));
}

// A target that is not a regular file (vbsdecode --out /dev/null) must not
// be renamed over: AtomicFile writes it in place. A pipe stands in for the
// device so a failure cannot damage anything outside the test directory.
TEST(AtomicFileTest, NonRegularTargetIsWrittenInPlace) {
  TempDir dir("atomic_fifo");
  fs::create_directories(dir.path);
  const std::string path = dir.path + "/out.fifo";
  ASSERT_EQ(::mkfifo(path.c_str(), 0600), 0);
  const int rd = ::open(path.c_str(), O_RDONLY | O_NONBLOCK);
  ASSERT_GE(rd, 0);
  {
    AtomicFile f(path);
    f.write(std::string("piped"));
    f.commit();
  }
  char buf[16] = {};
  EXPECT_EQ(::read(rd, buf, sizeof buf), 5);
  ::close(rd);
  EXPECT_EQ(std::string(buf), "piped");
  EXPECT_TRUE(fs::is_fifo(path));
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// --- WAL framing and scan ----------------------------------------------------

TEST(ServiceJournalTest, PayloadHelpersRoundTripAndRejectTruncation) {
  std::string p;
  put_u32(p, 0xdeadbeefu);
  put_u64(p, 0x0123456789abcdefull);
  BitVector bits(13);
  bits.set(0, true);
  bits.set(12, true);
  put_bits(p, bits);
  put_str(p, "policy=first_fit");
  ByteReader r(p, VbsErrc::kBadJournal, "journal");
  EXPECT_EQ(r.u32(), 0xdeadbeefu);
  EXPECT_EQ(r.u64(), 0x0123456789abcdefull);
  EXPECT_EQ(r.bits(), bits);
  EXPECT_EQ(r.str(), "policy=first_fit");
  EXPECT_EQ(r.pos(), p.size());
  // Reading past the end is structural corruption, not a torn tail.
  try {
    r.u64();
    FAIL() << "expected kBadJournal";
  } catch (const VbsError& e) {
    EXPECT_EQ(e.code(), VbsErrc::kBadJournal);
  }
}

TEST(ServiceJournalTest, FreshJournalRoundTripsRecords) {
  TempDir dir("roundtrip");
  std::string prio;
  put_u32(prio, 3);
  put_u32(prio, 9);
  {
    ServiceJournal j(dir.path, FaultPlan(), "open-config");
    j.append(ServiceJournal::Kind::kSetPriority, prio);
    std::string commit;
    put_u64(commit, 0x1122334455667788ull);
    j.append(ServiceJournal::Kind::kCommit, commit);
    EXPECT_EQ(j.epoch(), 0u);
    EXPECT_GT(j.io_ops(), 0);
  }
  const ServiceJournal::ScanResult sr = ServiceJournal::scan(dir.path);
  ASSERT_EQ(sr.records.size(), 3u);
  EXPECT_EQ(sr.records[0].kind, ServiceJournal::Kind::kOpen);
  EXPECT_EQ(sr.records[0].payload, "open-config");
  EXPECT_EQ(sr.records[1].kind, ServiceJournal::Kind::kSetPriority);
  EXPECT_EQ(sr.records[1].payload, prio);
  EXPECT_EQ(sr.records[2].kind, ServiceJournal::Kind::kCommit);
  EXPECT_FALSE(sr.torn_tail);
  EXPECT_EQ(sr.epoch, 0u);
  EXPECT_TRUE(sr.snapshot_path.empty());
}

// Pins the VJL1 bytes of a fresh journal (magic, kOpen) plus one commit
// record: record framing and checksum must stay readable by recovery.
TEST(ServiceJournalTest, WalBytesArePinned) {
  TempDir dir("pinned");
  {
    ServiceJournal j(dir.path, FaultPlan(), "cfg");
    std::string commit;
    put_u64(commit, 0x1122334455667788ull);
    j.append(ServiceJournal::Kind::kCommit, commit);
  }
  std::string bytes;
  {
    std::ifstream is(dir.path + "/journal.wal", std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  EXPECT_EQ(hex_of(bytes),
            "564a4c31030000000063666780d7e301beabb445080000000788776655443322"
            "118e19c578b1f0e4dd");
}

TEST(ServiceJournalTest, TornTailDroppedAndTruncated) {
  TempDir dir("torn");
  {
    ServiceJournal j(dir.path, FaultPlan(), "cfg");
    j.append(ServiceJournal::Kind::kCommit, std::string(8, '\x07'));
  }
  const std::string wal = dir.path + "/journal.wal";
  const auto clean_size = fs::file_size(wal);
  {
    // A record cut mid-payload: what death mid-append leaves.
    std::ofstream os(wal, std::ios::binary | std::ios::app);
    const char torn[] = {0x40, 0x00, 0x00, 0x00, 0x07, 'p', 'a', 'r'};
    os.write(torn, sizeof torn);
  }
  ServiceJournal::ScanResult sr = ServiceJournal::scan(dir.path);
  EXPECT_TRUE(sr.torn_tail);
  ASSERT_EQ(sr.records.size(), 2u);
  EXPECT_EQ(fs::file_size(wal), clean_size);  // tail physically dropped
  // Idempotent: a second scan sees a clean journal.
  sr = ServiceJournal::scan(dir.path);
  EXPECT_FALSE(sr.torn_tail);
  EXPECT_EQ(sr.records.size(), 2u);
}

TEST(ServiceJournalTest, CorruptCompleteRecordIsBadJournal) {
  TempDir dir("corrupt");
  {
    ServiceJournal j(dir.path, FaultPlan(), "cfg");
    j.append(ServiceJournal::Kind::kCommit, std::string(8, '\x07'));
    j.append(ServiceJournal::Kind::kCommit, std::string(8, '\x09'));
  }
  const std::string wal = dir.path + "/journal.wal";
  std::string data;
  {
    std::ifstream is(wal, std::ios::binary);
    data.assign((std::istreambuf_iterator<char>(is)),
                std::istreambuf_iterator<char>());
  }
  // Flip one payload byte of a middle record: checksum must catch it.
  data[data.size() / 2] = static_cast<char>(data[data.size() / 2] ^ 0x10);
  {
    std::ofstream os(wal, std::ios::binary | std::ios::trunc);
    os.write(data.data(), static_cast<std::streamsize>(data.size()));
  }
  try {
    ServiceJournal::scan(dir.path);
    FAIL() << "expected kBadJournal";
  } catch (const VbsError& e) {
    EXPECT_EQ(e.code(), VbsErrc::kBadJournal);
  }
}

TEST(ServiceJournalTest, MissingOrHeadlessWalIsBadJournal) {
  TempDir dir("headless");
  fs::create_directories(dir.path);
  try {
    ServiceJournal::scan(dir.path);
    FAIL() << "expected kBadJournal for missing WAL";
  } catch (const VbsError& e) {
    EXPECT_EQ(e.code(), VbsErrc::kBadJournal);
  }
  {
    std::ofstream os(dir.path + "/journal.wal", std::ios::binary);
    os.write("BOGUS", 5);
  }
  try {
    ServiceJournal::scan(dir.path);
    FAIL() << "expected kBadJournal for bad magic";
  } catch (const VbsError& e) {
    EXPECT_EQ(e.code(), VbsErrc::kBadJournal);
  }
}

// --- service-level durability ------------------------------------------------

TEST(ServiceDurabilityTest, JournaledRunRecoversIdentically) {
  TempDir dir("recover");
  ReconfigService svc(test_arch(), 16, 12, small_opts(2));
  svc.open_journal(dir.path);
  ASSERT_TRUE(svc.journaled());
  const std::uint64_t fp = run_scripted(svc);

  ReconfigService::RecoveryInfo info;
  const auto recovered = ReconfigService::recover(dir.path, 2, &info);
  EXPECT_EQ(recovered->state_fingerprint(), fp);
  EXPECT_FALSE(info.from_snapshot);
  EXPECT_FALSE(info.torn_tail);
  EXPECT_GT(info.admits, 0);
  EXPECT_GT(info.commits, 0);
  EXPECT_TRUE(recovered->journaled());
}

TEST(ServiceDurabilityTest, CompactionSnapshotsAndRecovers) {
  TempDir dir("compact");
  ReconfigService svc(test_arch(), 16, 12, small_opts(1));
  svc.open_journal(dir.path);
  const std::uint64_t fp = run_scripted(svc, /*compact_rounds=*/2);
  svc.compact_journal();

  ReconfigService::RecoveryInfo info;
  const auto recovered = ReconfigService::recover(dir.path, 1, &info);
  EXPECT_EQ(recovered->state_fingerprint(), fp);
  EXPECT_TRUE(info.from_snapshot);
  EXPECT_GT(info.epoch, 0u);
  EXPECT_TRUE(
      fs::exists(dir.path + "/snap." + std::to_string(info.epoch)));
  // Post-final-compaction WAL holds only the barrier: nothing to replay.
  EXPECT_EQ(info.admits, 0);
  EXPECT_EQ(info.commits, 0);
}

TEST(ServiceDurabilityTest, RecoveredServiceKeepsWorking) {
  TempDir dir("continue");
  const auto& streams = test_streams();
  // Reference: one uninterrupted, unjournaled run of script + extra ops.
  ReconfigService ref(test_arch(), 16, 12, small_opts(2));
  run_scripted(ref);
  ref.submit_load(streams[0], 7);
  ref.drain();
  const std::uint64_t want = ref.state_fingerprint();

  ReconfigService svc(test_arch(), 16, 12, small_opts(2));
  svc.open_journal(dir.path);
  run_scripted(svc);
  auto recovered = ReconfigService::recover(dir.path, 2);
  recovered->submit_load(streams[0], 7);
  recovered->drain();
  EXPECT_EQ(recovered->state_fingerprint(), want);
  // The continued ops were journaled too: recovery of the recovery matches.
  recovered.reset();  // release the WAL before re-reading it
  EXPECT_EQ(ReconfigService::recover(dir.path, 2)->state_fingerprint(), want);
}

std::uint64_t file_fnv(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(is)),
                          std::istreambuf_iterator<char>());
  EXPECT_FALSE(bytes.empty()) << path;
  return fnv1a64(bytes.data(), bytes.size());
}

// Pins the bytes a journaled service writes: the kOpen configuration,
// every admission record (a load shed at the door, an unload, a
// relocate), a priority change, the commits, a compaction's snap.<epoch>
// file and the WAL that follows it. Recovery must keep reading all of it.
TEST(ServiceDurabilityTest, JournalBytesArePinned) {
  TempDir dir("pinned_service");
  const std::string wal = dir.path + "/journal.wal";
  const auto& streams = test_streams();
  ReconfigService svc(test_arch(), 16, 12, small_opts(1));
  svc.open_journal(dir.path);
  svc.set_tenant_priority(1, 5);
  std::vector<RequestId> loads;
  for (int i = 0; i < 5; ++i) {  // queue_limit is 4: the fifth load sheds
    loads.push_back(svc.submit_load(streams[static_cast<std::size_t>(i % 3)],
                                    i % 3));
  }
  int shed = 0;
  for (const RequestResult& r : svc.drain()) {
    shed += r.status == RequestStatus::kShed ? 1 : 0;
  }
  EXPECT_EQ(shed, 1);
  svc.submit_relocate(loads[1], 1);
  svc.submit_unload(loads[2], 2);
  svc.drain();
  const std::uint64_t wal_before = file_fnv(wal);
  svc.compact_journal();
  const std::uint64_t snap = file_fnv(dir.path + "/snap.1");
  svc.submit_load(streams[0], 0);
  svc.drain();
  const std::uint64_t wal_after = file_fnv(wal);

  EXPECT_EQ(wal_before, 0x4ab4c9e7aecdf7c4ull);
  EXPECT_EQ(snap, 0xe4901b525f10357bull);
  EXPECT_EQ(wal_after, 0xffaa59cb83264433ull);
}

// Pins a snapshot taken with work still queued: a live load, a load shed
// by a higher-priority tenant, an unload and a relocate, on top of earlier
// drains that evicted tasks and filled the cache. Recovery from it must
// then drain to the same results and state as the original service.
TEST(ServiceDurabilityTest, SnapshotWithQueuedWorkIsPinned) {
  TempDir dir("pinned_queue");
  TempDir copy("pinned_queue_copy");
  const auto& streams = test_streams();
  ReconfigService svc(test_arch(), 8, 8, small_opts(1));
  svc.open_journal(dir.path);
  svc.set_tenant_priority(1, 5);
  svc.set_tenant_priority(2, 3);
  std::vector<RequestId> loads;
  for (int i = 0; i < 6; ++i) {
    loads.push_back(svc.submit_load(streams[static_cast<std::size_t>(i % 3)],
                                    i % 3));
    if (i % 2 == 1) svc.drain();
  }
  ASSERT_FALSE(svc.eviction_log().empty());
  ASSERT_GT(svc.cache().entries(), 0u);
  for (int i = 0; i < 4; ++i) svc.submit_load(streams[0], 0);
  svc.submit_load(streams[1], 1);  // queue full: sheds tenant 0's newest
  ASSERT_EQ(svc.stats().shed, 1);
  ASSERT_NE(svc.task_of(loads[4]), kNoTask);
  ASSERT_NE(svc.task_of(loads[5]), kNoTask);
  svc.submit_unload(loads[4], 1);
  svc.submit_relocate(loads[5], 2);
  ASSERT_EQ(svc.pending(), 7u);

  svc.compact_journal();
  const std::uint64_t fp = svc.state_fingerprint();
  EXPECT_EQ(file_fnv(dir.path + "/snap.1"), 0x1805441e6d463108ull);
  EXPECT_EQ(fp, 0x14ba7d8b64f7f3e9ull);

  fs::copy(dir.path, copy.path, fs::copy_options::recursive);
  ReconfigService::RecoveryInfo info;
  const auto recovered = ReconfigService::recover(copy.path, 2, &info);
  EXPECT_TRUE(info.from_snapshot);
  EXPECT_EQ(recovered->state_fingerprint(), fp);
  const std::vector<RequestResult> want = svc.drain();
  const std::vector<RequestResult> got = recovered->drain();
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(got[i].request, want[i].request) << i;
    EXPECT_EQ(got[i].status, want[i].status) << i;
    EXPECT_EQ(got[i].task, want[i].task) << i;
    EXPECT_EQ(got[i].rect, want[i].rect) << i;
    EXPECT_EQ(got[i].code, want[i].code) << i;
    EXPECT_EQ(got[i].latency_ticks, want[i].latency_ticks) << i;
  }
  EXPECT_EQ(recovered->state_fingerprint(), svc.state_fingerprint());
}

std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  return std::string((std::istreambuf_iterator<char>(is)),
                     std::istreambuf_iterator<char>());
}

/// Writes a WAL of `records` framed as journal.h documents it, so a test
/// can store a payload the service never writes under a valid checksum.
void write_wal(const std::string& path,
               const std::vector<ServiceJournal::Record>& records) {
  std::string bytes = "VJL1";
  for (const ServiceJournal::Record& rec : records) {
    const auto kind = static_cast<std::uint8_t>(rec.kind);
    put_u32(bytes, static_cast<std::uint32_t>(rec.payload.size()));
    put_u8(bytes, kind);
    bytes += rec.payload;
    put_u64(bytes, hash_u64(fnv1a64(rec.payload.data(), rec.payload.size(),
                                    fnv1a64(&kind, 1)),
                            rec.payload.size()));
  }
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

void expect_bad_journal(const std::string& dir, const std::string& label) {
  try {
    ReconfigService::recover(dir, 1);
    ADD_FAILURE() << label << ": expected kBadJournal";
  } catch (const VbsError& e) {
    EXPECT_EQ(e.code(), VbsErrc::kBadJournal) << label;
  }
}

// Every record's payload must end where its last field ends: one extra
// byte behind a valid checksum is corruption, for each kind replay reads
// (admissions, shed companion, priority, commit) and for the barrier.
TEST(ServiceDurabilityTest, TrailingRecordBytesAreBadJournal) {
  TempDir dir("trailing");
  const std::string wal = dir.path + "/journal.wal";
  const auto& streams = test_streams();
  {
    ReconfigService svc(test_arch(), 16, 12, small_opts(1));
    svc.open_journal(dir.path);
    svc.set_tenant_priority(1, 5);
    std::vector<RequestId> loads;
    for (int i = 0; i < 5; ++i) {  // queue_limit is 4: the fifth load sheds
      loads.push_back(
          svc.submit_load(streams[static_cast<std::size_t>(i % 3)], 0));
    }
    svc.submit_unload(loads[0], 0);
    svc.submit_relocate(loads[1], 0);
    svc.drain();
  }
  const std::string original = read_file(wal);
  const std::vector<ServiceJournal::Record> records =
      ServiceJournal::scan(dir.path).records;
  write_wal(wal, records);
  ASSERT_EQ(read_file(wal), original);  // the framing above is the real one

  std::set<ServiceJournal::Kind> kinds;
  for (std::size_t i = 1; i < records.size(); ++i) {
    std::vector<ServiceJournal::Record> tampered = records;
    tampered[i].payload.push_back('\0');
    write_wal(wal, tampered);
    expect_bad_journal(dir.path, "record " + std::to_string(i));
    kinds.insert(records[i].kind);
  }
  EXPECT_EQ(kinds.size(), 6u);  // every kind replay reads

  write_wal(wal, records);
  ReconfigService::recover(dir.path, 1)->compact_journal();
  std::vector<ServiceJournal::Record> barrier =
      ServiceJournal::scan(dir.path).records;
  ASSERT_EQ(barrier.size(), 1u);
  ASSERT_EQ(barrier[0].kind, ServiceJournal::Kind::kSnapshotBarrier);
  barrier[0].payload.push_back('\0');
  write_wal(wal, barrier);
  expect_bad_journal(dir.path, "barrier");
}

// The kOpen record keeps the slots of three retired service options: the
// placement policy, evict-to-fit and the batch cap, always "first_fit", 1
// and 16. A journal naming any other value was written for a service that
// no longer exists, so recovery rejects it rather than replay it
// differently.
TEST(ServiceDurabilityTest, RetiredOpenSettingsMustHoldTheirOnlyValue) {
  TempDir dir("retired_open");
  const std::string wal = dir.path + "/journal.wal";
  {
    ReconfigService svc(test_arch(), 16, 12, small_opts(1));
    svc.open_journal(dir.path);
  }
  const std::vector<ServiceJournal::Record> records =
      ServiceJournal::scan(dir.path).records;
  ASSERT_EQ(records.size(), 1u);
  ASSERT_EQ(records[0].kind, ServiceJournal::Kind::kOpen);
  const std::string& open = records[0].payload;
  const auto slots = [](const char* policy, std::uint32_t evict,
                        std::uint32_t batch) {
    std::string s;
    put_str(s, policy);
    put_u32(s, evict);
    put_u32(s, batch);
    return s;
  };
  // The slots follow the version, architecture, fabric size and thread
  // count (seven u32) and the cache capacity (one u64).
  const std::size_t at = 7 * 4 + 8;
  const std::string written = slots("first_fit", 1, 16);
  ASSERT_EQ(open.substr(at, written.size()), written);
  EXPECT_NE(ReconfigService::recover(dir.path, 1), nullptr);

  const struct {
    const char* label;
    std::string slots;
  } cases[] = {
      {"best_fit", slots("best_fit", 1, 16)},
      {"evict flag 0", slots("first_fit", 0, 16)},
      {"max_batch 8", slots("first_fit", 1, 8)},
  };
  for (const auto& c : cases) {
    ServiceJournal::Record tampered = records[0];
    tampered.payload =
        open.substr(0, at) + c.slots + open.substr(at + written.size());
    write_wal(wal, {tampered});
    expect_bad_journal(dir.path, c.label);
  }
}

TEST(ServiceDurabilityTest, PersistentAppendFailureDetachesJournal) {
  // Search for a seed whose injected sync failures spare journal creation
  // but kill one append twice in a row (append retries once). Determinism
  // makes the search itself deterministic: the same seed is found every run.
  const auto& streams = test_streams();
  for (std::uint64_t seed = 1; seed < 64; ++seed) {
    TempDir dir("detach_" + std::to_string(seed));
    const FaultPlan io_plan =
        FaultPlan::parse("seed=" + std::to_string(seed) + ",sync=0.5");
    ReconfigService svc(test_arch(), 16, 12, small_opts(1));
    try {
      svc.open_journal(dir.path, &io_plan);
    } catch (const VbsError&) {
      continue;  // creation itself died; try another seed
    }
    try {
      for (int i = 0; i < 32; ++i) {
        svc.submit_load(streams[static_cast<std::size_t>(i) % 3], 0);
        svc.drain();
      }
    } catch (const VbsError& e) {
      EXPECT_EQ(e.code(), VbsErrc::kFaultInjected);
      EXPECT_FALSE(svc.journaled());  // durability gone, service alive
      svc.submit_load(streams[0], 1);
      EXPECT_FALSE(svc.drain().empty());
      // The WAL is still a clean prefix of complete records.
      const auto sr = ServiceJournal::scan(dir.path);
      EXPECT_FALSE(sr.records.empty());
      const auto recovered = ReconfigService::recover(dir.path, 1);
      EXPECT_TRUE(recovered->journaled());
      return;
    }
  }
  FAIL() << "no seed produced a double append failure";
}

TEST(ServiceDurabilityTest, InjectedCrashMidRunRecovers) {
  // Count the run's I/O ops, then re-run killing in the middle of them.
  TempDir count_dir("crash_count");
  ReconfigService counter(test_arch(), 16, 12, small_opts(1));
  counter.open_journal(count_dir.path);
  run_scripted(counter, /*compact_rounds=*/2);
  const long long total_ops = counter.journal_io_ops();
  ASSERT_GT(total_ops, 8);

  TempDir dir("crash");
  const FaultPlan io_plan =
      FaultPlan::parse("crash=" + std::to_string(total_ops / 2));
  ReconfigService svc(test_arch(), 16, 12, small_opts(1));
  svc.open_journal(dir.path, &io_plan);
  bool crashed = false;
  try {
    run_scripted(svc, /*compact_rounds=*/2);
  } catch (const CrashInjected&) {
    crashed = true;
  }
  ASSERT_TRUE(crashed);
  // The crashed process's memory is gone; the journal alone must yield a
  // consistent service. Recovery is idempotent: recover twice, same state.
  ReconfigService::RecoveryInfo info;
  const auto a = ReconfigService::recover(dir.path, 1, &info);
  const auto b = ReconfigService::recover(dir.path, 1);
  EXPECT_EQ(a->state_fingerprint(), b->state_fingerprint());
  EXPECT_GT(info.records, 0);
}

}  // namespace
}  // namespace vbs
