// Network-layer tests: the MPSC ring, the event loop over real
// socketpairs, connection fault injection, and the vbs.rpc.v1 frame codec
// (round-trip, truncation, bad checksum, oversized length prefix,
// handshake payloads and proofs).
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "hex.h"
#include "net/conn.h"
#include "net/event_loop.h"
#include "net/poller.h"
#include "net/ring.h"
#include "rtc/server/wire.h"
#include "util/bytes.h"
#include "util/error.h"

namespace vbs {
namespace {

using net::Conn;
using net::EventLoop;
using net::IoStatus;
using net::MpscRing;

// --- MpscRing ---------------------------------------------------------------

TEST(MpscRing, FifoSingleProducer) {
  MpscRing<int> ring(8);
  EXPECT_TRUE(ring.empty());
  for (int i = 0; i < 8; ++i) EXPECT_TRUE(ring.push(int{i}));
  EXPECT_FALSE(ring.push(99));  // full fails, never blocks
  int v = -1;
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(ring.pop(v));
    EXPECT_EQ(v, i);
  }
  EXPECT_FALSE(ring.pop(v));
  EXPECT_TRUE(ring.empty());
}

TEST(MpscRing, CapacityRoundsUpToPowerOfTwo) {
  MpscRing<int> ring(5);
  EXPECT_EQ(ring.capacity(), 8u);
  MpscRing<int> ring2(16);
  EXPECT_EQ(ring2.capacity(), 16u);
}

TEST(MpscRing, WrapsAcrossManyLaps) {
  MpscRing<int> ring(4);
  int v = -1;
  for (int lap = 0; lap < 1000; ++lap) {
    EXPECT_TRUE(ring.push(int{lap}));
    ASSERT_TRUE(ring.pop(v));
    EXPECT_EQ(v, lap);
  }
}

TEST(MpscRing, ConcurrentProducersLoseNothing) {
  MpscRing<int> ring(64);
  constexpr int kPerProducer = 20000;
  constexpr int kProducers = 3;
  std::atomic<long long> sum{0};
  std::atomic<int> popped{0};
  std::thread consumer([&] {
    int v = 0;
    while (popped.load() < kProducers * kPerProducer) {
      if (ring.pop(v)) {
        sum.fetch_add(v);
        popped.fetch_add(1);
      } else {
        std::this_thread::yield();
      }
    }
  });
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&ring, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        const int value = p * kPerProducer + i;
        while (!ring.push(int{value})) std::this_thread::yield();
      }
    });
  }
  for (auto& t : producers) t.join();
  consumer.join();
  long long expect = 0;
  for (int i = 0; i < kProducers * kPerProducer; ++i) expect += i;
  EXPECT_EQ(sum.load(), expect);
}

// --- EventLoop ---------------------------------------------------------------

struct SocketPair {
  int a = -1, b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = fds[0];
    b = fds[1];
    net::set_nonblocking(a);
    net::set_nonblocking(b);
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
  /// Detach ownership (a Conn will close it).
  int take_a() { int fd = a; a = -1; return fd; }
  int take_b() { int fd = b; b = -1; return fd; }
};

TEST(EventLoop, SocketpairEcho) {
  SocketPair sp;
  EventLoop loop;
  std::string received;
  loop.watch(sp.a, net::kReadable, [&](std::uint32_t) {
    char buf[256];
    const ssize_t n = ::recv(sp.a, buf, sizeof(buf), 0);
    if (n > 0) received.append(buf, static_cast<std::size_t>(n));
    if (received.size() >= 5) loop.stop();
  });
  ASSERT_EQ(::send(sp.b, "hello", 5, 0), 5);
  loop.run();
  EXPECT_EQ(received, "hello");
}

TEST(EventLoop, PostFromAnotherThreadWakesParkedLoop) {
  EventLoop loop;
  std::atomic<bool> ran{false};
  std::thread poster([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    loop.post([&] {
      ran.store(true);
      loop.stop();
    });
  });
  loop.run();  // parked in epoll_wait until the post's eventfd wake
  poster.join();
  EXPECT_TRUE(ran.load());
}

TEST(EventLoop, RunOnceProcessesPostedWork) {
  EventLoop loop;
  int count = 0;
  loop.post([&] { ++count; });
  loop.post([&] { ++count; });
  EXPECT_GE(loop.run_once(0), 2u);
  EXPECT_EQ(count, 2);
}

// --- Conn --------------------------------------------------------------------

TEST(Conn, RoundTripAndBuffering) {
  SocketPair sp;
  Conn a(sp.take_a(), 1);
  Conn b(sp.take_b(), 2);
  EXPECT_EQ(a.queue_write("ping"), IoStatus::kOk);
  EXPECT_EQ(b.on_readable(), IoStatus::kOk);  // made progress, kernel empty
  EXPECT_EQ(b.inbuf(), "ping");
  EXPECT_EQ(a.bytes_out(), 4u);
  EXPECT_EQ(b.bytes_in(), 4u);
}

TEST(Conn, EofIsClosed) {
  SocketPair sp;
  Conn a(sp.take_a(), 1);
  { Conn b(sp.take_b(), 2); }  // destructor closes the peer
  EXPECT_EQ(a.on_readable(), IoStatus::kClosed);
}

TEST(Conn, NetEagainFaultBlocksDeterministically) {
  const FaultPlan plan = FaultPlan::parse("seed=3,net_eagain=1");
  SocketPair sp;
  Conn a(sp.take_a(), 7, plan);
  Conn b(sp.take_b(), 8);
  ASSERT_EQ(b.queue_write("data"), IoStatus::kOk);
  // Rate 1.0: every read op on the faulty conn is a spurious EAGAIN.
  EXPECT_EQ(a.on_readable(), IoStatus::kBlocked);
  EXPECT_EQ(a.on_readable(), IoStatus::kBlocked);
  EXPECT_TRUE(a.inbuf().empty());
}

TEST(Conn, NetDropFaultSeversConnection) {
  const FaultPlan plan = FaultPlan::parse("seed=3,net_drop=1");
  SocketPair sp;
  Conn a(sp.take_a(), 7, plan);
  EXPECT_EQ(a.on_readable(), IoStatus::kClosed);
  EXPECT_TRUE(a.closed());
}

TEST(Conn, NetShortReadStillMakesProgress) {
  const FaultPlan plan = FaultPlan::parse("seed=3,net_short=1");
  SocketPair sp;
  Conn a(sp.take_a(), 7, plan);
  Conn b(sp.take_b(), 8);
  ASSERT_EQ(b.queue_write("0123456789"), IoStatus::kOk);
  // Every read is truncated to a few bytes, but repeated calls still
  // drain the socket: short reads slow a peer down, they don't stall it.
  for (int i = 0; i < 10 && a.inbuf().size() < 10; ++i) {
    (void)a.on_readable();
  }
  EXPECT_EQ(a.inbuf(), "0123456789");
}

// --- wire codec --------------------------------------------------------------

TEST(Wire, FrameRoundTripAllTypes) {
  using rpc::FrameType;
  rpc::FrameReader reader;
  for (std::uint8_t t = 1; t <= 17; ++t) {
    const auto type = static_cast<FrameType>(t);
    const std::string payload = "payload-" + std::to_string(t);
    std::string buf = rpc::encode_frame(type, 0xabcdef01ull + t, payload);
    rpc::Frame f;
    ASSERT_TRUE(reader.next(buf, f));
    EXPECT_EQ(f.type, type);
    EXPECT_EQ(f.corr, 0xabcdef01ull + t);
    EXPECT_EQ(f.payload, payload);
    EXPECT_TRUE(buf.empty());  // fully consumed
  }
}

// Pins one vbs.rpc.v1 LOAD frame and the handshake derivations: a peer
// built from an older tree must still parse and authenticate.
TEST(Wire, FrameBytesArePinned) {
  BitVector stream;
  stream.append_bits(0xc3a5, 16);
  stream.append_bits(0x5, 3);
  EXPECT_EQ(hex_of(rpc::encode_frame(rpc::FrameType::kLoad,
                                     0x0102030405060708ull,
                                     rpc::encode_load(3, stream))),
            "3600000001060807060504030201e749444a0539f3be03000000564152310300"
            "00000000000000bcb13b9f3a0b329c1300000000000000c3a5a0");
  const std::uint64_t secret = rpc::tenant_secret(0x5eedull, 3);
  EXPECT_EQ(secret, 0xab74f7add82ac322ull);
  EXPECT_EQ(rpc::auth_proof(secret, 3, 11, 22), 0xd5d35eb02b4043d9ull);
}

TEST(Wire, PartialFrameWaitsForMoreBytes) {
  rpc::FrameReader reader;
  const std::string whole =
      rpc::encode_frame(rpc::FrameType::kPing, 42, "abc");
  rpc::Frame f;
  for (std::size_t cut = 0; cut < whole.size(); ++cut) {
    std::string buf = whole.substr(0, cut);
    EXPECT_FALSE(reader.next(buf, f)) << "cut=" << cut;
    EXPECT_EQ(buf.size(), cut);  // nothing consumed
  }
  std::string buf = whole;
  EXPECT_TRUE(reader.next(buf, f));
}

TEST(Wire, TwoFramesInOneBuffer) {
  rpc::FrameReader reader;
  std::string buf = rpc::encode_frame(rpc::FrameType::kPing, 1, "a") +
                    rpc::encode_frame(rpc::FrameType::kPong, 2, "b");
  rpc::Frame f;
  ASSERT_TRUE(reader.next(buf, f));
  EXPECT_EQ(f.corr, 1u);
  ASSERT_TRUE(reader.next(buf, f));
  EXPECT_EQ(f.corr, 2u);
  EXPECT_TRUE(buf.empty());
}

// A deep buffer drains in order and byte for byte: 4,096 PINGs parsed from
// one buffer, then a frame that arrives in two halves behind them.
TEST(Wire, ManyFramesFromOneBufferKeepOrderAndBytes) {
  constexpr std::uint64_t kFrames = 4096;
  std::vector<std::string> sent;
  std::string buf;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    sent.push_back(rpc::encode_frame(rpc::FrameType::kPing, i,
                                     "ping-" + std::to_string(i)));
    buf += sent.back();
  }
  rpc::FrameReader reader;
  rpc::Frame f;
  for (std::uint64_t i = 0; i < kFrames; ++i) {
    ASSERT_TRUE(reader.next(buf, f)) << "frame " << i;
    ASSERT_EQ(f.type, rpc::FrameType::kPing);
    ASSERT_EQ(f.corr, i);
    ASSERT_EQ(rpc::encode_frame(f.type, f.corr, f.payload), sent[i]);
  }
  EXPECT_FALSE(reader.next(buf, f));
  EXPECT_TRUE(buf.empty());

  const std::string last = rpc::encode_frame(rpc::FrameType::kPong, 7, "tail");
  buf += last.substr(0, last.size() / 2);
  EXPECT_FALSE(reader.next(buf, f));
  buf += last.substr(last.size() / 2);
  ASSERT_TRUE(reader.next(buf, f));
  EXPECT_EQ(rpc::encode_frame(f.type, f.corr, f.payload), last);
  EXPECT_TRUE(buf.empty());
}

TEST(Wire, BadChecksumIsNetFrame) {
  rpc::FrameReader reader;
  std::string buf = rpc::encode_frame(rpc::FrameType::kPing, 7, "xyz");
  buf.back() ^= 0x1;  // flip one payload bit
  rpc::Frame f;
  try {
    reader.next(buf, f);
    FAIL() << "expected VbsError";
  } catch (const VbsError& e) {
    EXPECT_EQ(e.code(), VbsErrc::kNetFrame);
  }
}

TEST(Wire, OversizedLengthPrefixRejectedBeforePayload) {
  rpc::FrameReader reader(1024);
  // Only the 4-byte prefix: the declared length alone must trip the
  // limit, long before any payload could arrive.
  std::string buf;
  put_u32(buf, 1u << 30);
  rpc::Frame f;
  try {
    reader.next(buf, f);
    FAIL() << "expected VbsError";
  } catch (const VbsError& e) {
    EXPECT_EQ(e.code(), VbsErrc::kNetFrame);
  }
}

TEST(Wire, ShortDeclaredLengthRejected) {
  rpc::FrameReader reader;
  std::string buf;
  put_u32(buf, 5);  // < 18: cannot hold the fixed header
  buf.append(20, '\0');
  rpc::Frame f;
  EXPECT_THROW(reader.next(buf, f), VbsError);
}

TEST(Wire, UnknownVersionAndTypeRejected) {
  rpc::FrameReader reader;
  rpc::Frame f;
  {
    std::string buf = rpc::encode_frame(rpc::FrameType::kPing, 1, "");
    buf[4] = 9;  // version byte
    EXPECT_THROW(reader.next(buf, f), VbsError);
  }
  {
    std::string buf = rpc::encode_frame(rpc::FrameType::kPing, 1, "");
    buf[5] = 99;  // type byte (checksum now wrong too; either check trips)
    EXPECT_THROW(reader.next(buf, f), VbsError);
  }
}

TEST(Wire, PayloadCodecsRoundTrip) {
  {
    const rpc::HelloMsg m{-1, 0xfeedull};
    const rpc::HelloMsg r = rpc::decode_hello(rpc::encode_hello(m));
    EXPECT_EQ(r.tenant, -1);
    EXPECT_EQ(r.client_nonce, 0xfeedull);
  }
  {
    const rpc::AuthOkMsg m{1234567890123ll, 77};
    const rpc::AuthOkMsg r = rpc::decode_auth_ok(rpc::encode_auth_ok(m));
    EXPECT_EQ(r.next_request_id, 1234567890123ll);
    EXPECT_EQ(r.session, 77u);
  }
  {
    const rpc::ErrorMsg m{VbsErrc::kQueueFull, "full up"};
    const rpc::ErrorMsg r = rpc::decode_error(rpc::encode_error(m));
    EXPECT_EQ(r.code, VbsErrc::kQueueFull);
    EXPECT_EQ(r.message, "full up");
  }
  {
    const rpc::TargetMsg m{3, 42};
    const rpc::TargetMsg r = rpc::decode_target(rpc::encode_target(m));
    EXPECT_EQ(r.tenant, 3);
    EXPECT_EQ(r.target, 42);
  }
  {
    RequestResult res;
    res.request = 9;
    res.kind = RequestKind::kRelocate;
    res.status = RequestStatus::kShed;
    res.task = 5;
    res.rect = {1, 2, 3, 4};
    res.tenant = -1;
    res.priority = 10;
    res.attempts = 3;
    res.cache_hit = true;
    res.evicted_tasks = 2;
    res.code = VbsErrc::kQueueFull;
    res.latency_ticks = 100;
    res.queue_wait_ticks = 60;
    res.backoff_ticks = 30;
    res.spike_ticks = 8;
    res.exec_ticks = 2;
    const RequestResult r = rpc::decode_result(rpc::encode_result(res));
    EXPECT_EQ(r.request, 9);
    EXPECT_EQ(r.kind, RequestKind::kRelocate);
    EXPECT_EQ(r.status, RequestStatus::kShed);
    EXPECT_EQ(r.task, 5);
    EXPECT_EQ(r.rect.x, 1);
    EXPECT_EQ(r.rect.h, 4);
    EXPECT_EQ(r.tenant, -1);
    EXPECT_EQ(r.priority, 10);
    EXPECT_EQ(r.attempts, 3);
    EXPECT_TRUE(r.cache_hit);
    EXPECT_EQ(r.evicted_tasks, 2);
    EXPECT_EQ(r.code, VbsErrc::kQueueFull);
    EXPECT_EQ(r.latency_ticks, 100);
    EXPECT_EQ(r.queue_wait_ticks, 60);
    EXPECT_EQ(r.backoff_ticks, 30);
    EXPECT_EQ(r.spike_ticks, 8);
    EXPECT_EQ(r.exec_ticks, 2);
  }
  {
    rpc::StatReplyMsg m;
    m.fingerprint = 0xdeadbeefull;
    m.now_ticks = 55;
    m.pending = 3;
    m.shed = 4;
    const rpc::StatReplyMsg r =
        rpc::decode_stat_reply(rpc::encode_stat_reply(m));
    EXPECT_EQ(r.fingerprint, 0xdeadbeefull);
    EXPECT_EQ(r.now_ticks, 55);
    EXPECT_EQ(r.pending, 3u);
    EXPECT_EQ(r.shed, 4);
  }
}

TEST(Wire, TruncatedPayloadIsNetFrame) {
  const std::string good = rpc::encode_hello({5, 0x1234});
  for (std::size_t cut = 0; cut < good.size(); ++cut) {
    try {
      rpc::decode_hello(good.substr(0, cut));
      FAIL() << "cut=" << cut;
    } catch (const VbsError& e) {
      EXPECT_EQ(e.code(), VbsErrc::kNetFrame);
    }
  }
}

TEST(Wire, LoadPayloadReusesArtifactContainer) {
  BitVector bits;
  for (int i = 0; i < 77; ++i) bits.push_back(i % 3 == 0);
  const std::string payload = rpc::encode_load(4, bits);
  const rpc::LoadMsg m = rpc::decode_load(payload);
  EXPECT_EQ(m.tenant, 4);
  EXPECT_EQ(m.stream, bits);

  // Tamper with the container body: the content hash must catch it and
  // surface as a wire-level kNetFrame, not a crash.
  std::string bad = payload;
  bad.back() = static_cast<char>(bad.back() ^ 0x40);
  try {
    rpc::decode_load(bad);
    FAIL() << "expected VbsError";
  } catch (const VbsError& e) {
    EXPECT_EQ(e.code(), VbsErrc::kNetFrame);
  }
}

TEST(Wire, AuthProofBindsEveryInput) {
  const std::uint64_t secret = rpc::tenant_secret(42, 3);
  const std::uint64_t proof = rpc::auth_proof(secret, 3, 100, 200);
  EXPECT_EQ(proof, rpc::auth_proof(secret, 3, 100, 200));  // deterministic
  EXPECT_NE(proof, rpc::auth_proof(secret + 1, 3, 100, 200));
  EXPECT_NE(proof, rpc::auth_proof(secret, 4, 100, 200));
  EXPECT_NE(proof, rpc::auth_proof(secret, 3, 101, 200));
  EXPECT_NE(proof, rpc::auth_proof(secret, 3, 100, 201));
  // Different tenants get different secrets from the same seed.
  EXPECT_NE(rpc::tenant_secret(42, 0), rpc::tenant_secret(42, 1));
  EXPECT_NE(rpc::tenant_secret(42, 0), rpc::tenant_secret(43, 0));
}

}  // namespace
}  // namespace vbs
