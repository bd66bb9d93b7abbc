// VBS binary format tests: Table I field widths, serialize/deserialize
// round-trips, malformed-stream rejection.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "errc.h"
#include "hex.h"
#include "rtc/service/stream_cache.h"
#include "util/bitio.h"
#include "util/bytes.h"
#include "util/error.h"
#include "vbs/devirtualizer.h"
#include "vbs/vbs_file.h"
#include "vbs/vbs_format.h"

namespace vbs {
namespace {

VbsImage sample_image(int cluster = 1) {
  VbsImage img;
  img.spec.chan_width = 5;
  img.spec.lut_k = 6;
  img.task_w = 6;
  img.task_h = 4;
  img.cluster = cluster;
  const int c2 = cluster * cluster;

  VbsEntry a;
  a.cx = 1;
  a.cy = 2 / cluster;
  a.logic.resize(static_cast<std::size_t>(c2));
  a.logic[0].used = true;
  a.logic[0].lut_mask = 0x123456789ABCDEFULL;
  a.logic[0].has_ff = true;
  a.conns.push_back({0, 21});   // west 0 -> pin
  a.conns.push_back({0, 7});    // fan-out
  img.entries.push_back(a);

  VbsEntry b;
  b.cx = 0;
  b.cy = 0;
  b.raw = true;
  b.logic.resize(static_cast<std::size_t>(c2));
  b.raw_routing =
      BitVector(static_cast<std::size_t>(c2) * img.spec.nroute_bits());
  b.raw_routing.set(3, true);
  b.raw_routing.set(100, true);
  img.entries.push_back(b);
  return img;
}

TEST(VbsFormat, RoundTripFineGrain) {
  const VbsImage img = sample_image();
  const BitVector bits = serialize_vbs(img);
  EXPECT_EQ(bits.size(), vbs_size(img).total());
  const VbsImage back = deserialize_vbs(bits);
  EXPECT_EQ(back.task_w, 6);
  EXPECT_EQ(back.task_h, 4);
  EXPECT_EQ(back.cluster, 1);
  EXPECT_EQ(back.spec.chan_width, 5);
  ASSERT_EQ(back.entries.size(), 2u);
  EXPECT_EQ(back.entries[0].cx, 1);
  EXPECT_FALSE(back.entries[0].raw);
  EXPECT_EQ(back.entries[0].conns, img.entries[0].conns);
  EXPECT_EQ(back.entries[0].logic[0].lut_mask, 0x123456789ABCDEFULL);
  EXPECT_TRUE(back.entries[0].logic[0].has_ff);
  EXPECT_TRUE(back.entries[1].raw);
  EXPECT_EQ(back.entries[1].raw_routing, img.entries[1].raw_routing);
  // Serialize again: bit-identical.
  EXPECT_EQ(serialize_vbs(back), bits);
}

TEST(VbsFormat, RoundTripClustered) {
  const VbsImage img = sample_image(2);
  const BitVector bits = serialize_vbs(img);
  EXPECT_EQ(bits.size(), vbs_size(img).total());
  const VbsImage back = deserialize_vbs(bits);
  EXPECT_EQ(back.cluster, 2);
  ASSERT_EQ(back.entries.size(), 2u);
  ASSERT_EQ(back.entries[0].logic.size(), 4u);
  EXPECT_TRUE(back.entries[0].logic[0].used);
  EXPECT_FALSE(back.entries[0].logic[1].used);
  EXPECT_EQ(serialize_vbs(back), bits);
}

TEST(VbsFormat, FieldWidthsMatchPaperFormulas) {
  ArchSpec s;
  s.chan_width = 5;
  const VbsFieldWidths w1 = vbs_field_widths(s, 1, 6, 4);
  // M = ceil(log2(4W + L + 1)) = 5 (paper Section II-B).
  EXPECT_EQ(w1.port, 5u);
  // "we can code up to floor(Nraw / 2M) = 28 connections" (paper).
  EXPECT_EQ(static_cast<unsigned>(s.nraw_bits()) / (2 * w1.port), 28u);
  EXPECT_EQ(w1.count, 4u);  // ceil(log2(2W))
  // 4cW + c^2 L + 1 = 40 + 28 + 1 = 69 -> 7 bits; clusters widen the
  // route-count field to the endpoint width.
  const VbsFieldWidths w2 = vbs_field_widths(s, 2, 6, 4);
  EXPECT_EQ(w2.port, 7u);
  EXPECT_EQ(w2.count, 7u);
  s.chan_width = 20;
  EXPECT_EQ(vbs_field_widths(s, 1, 6, 4).port, 7u);  // 4W + L = 87 ports
}

TEST(VbsFormat, HeaderSizesMatchTableOne) {
  // The per-macro fields of Table I: position on D bits each, logic on NLB
  // bits, route count on ceil(log2(2W)), endpoints on M bits (version 2).
  VbsImage img = sample_image();
  img.version = kVbsVersionFullPairs;
  img.entries.resize(1);
  img.entries[0].conns.resize(3);
  for (auto& c : img.entries[0].conns) c = {1, 2};
  const std::size_t d = bits_for(6 + 1);       // max(task_w, task_h) = 6
  const std::size_t rc = bits_for(2 * 5);      // 2W = 10
  const std::size_t m = bits_for(4 * 5 + 7 + 1);
  EXPECT_EQ(m, 5u);  // paper's example value
  const std::size_t preamble = 4 + 8 + 4 + 2 + 1 + 6 + 6 + 2 * d;
  const std::size_t entry_field = bits_for(6 * 4 + 1);
  const VbsSizeBreakdown b = vbs_size(img);
  EXPECT_EQ(b.header, preamble + entry_field);
  EXPECT_EQ(b.position, 1 + 2 * d);
  EXPECT_EQ(b.occupancy, 0u);
  EXPECT_EQ(b.logic, 65u);
  EXPECT_EQ(b.count, rc);
  EXPECT_EQ(b.list, 3 * 2 * m);
  EXPECT_EQ(b.raw, 0u);
  EXPECT_EQ(b.total(), serialize_vbs(img).size());
  // Version 3 codes the two repeats of in port 1 with one same_in bit each.
  img.version = kVbsVersion;
  const VbsSizeBreakdown v3 = vbs_size(img);
  EXPECT_EQ(v3.list, (1 + 2 * m) + 2 * (1 + m));
  EXPECT_EQ(v3.total(), b.total() - b.list + v3.list);
  EXPECT_EQ(v3.total(), serialize_vbs(img).size());
}

TEST(VbsFormat, EmptyImageSerializes) {
  VbsImage img;
  img.spec.chan_width = 5;
  img.task_w = 2;
  img.task_h = 2;
  const VbsImage back = deserialize_vbs(serialize_vbs(img));
  EXPECT_TRUE(back.entries.empty());
}

TEST(VbsFormat, RejectsTruncatedStream) {
  const BitVector bits = serialize_vbs(sample_image());
  const BitVector cut = bits.slice(0, bits.size() - 40);
  EXPECT_EQ(errc_of([&] { deserialize_vbs(cut); }), VbsErrc::kTruncated);
}

TEST(VbsFormat, RejectsTrailingGarbage) {
  BitVector bits = serialize_vbs(sample_image());
  bits.push_back(true);
  EXPECT_EQ(errc_of([&] { deserialize_vbs(bits); }), VbsErrc::kTrailingBits);
}

TEST(VbsFormat, RejectsBadVersion) {
  BitVector bits = serialize_vbs(sample_image());
  bits.set(0, !bits.get(0));  // corrupt the version nibble
  EXPECT_EQ(errc_of([&] { deserialize_vbs(bits); }), VbsErrc::kBadVersion);
}

// Each stream parses under its own version nibble and round-trips; under
// the other supported version it is a different coding, which may parse
// or throw a VbsError (VbsFormat.FlippedVersionNibbleIsTyped); any other
// nibble is kBadVersion.
TEST(VbsFormat, ParsesVersions2And3AndRejectsEveryOtherNibble) {
  for (const unsigned written : {kVbsVersionFullPairs, kVbsVersion}) {
    VbsImage img = sample_image();
    img.version = written;
    const BitVector stream = serialize_vbs(img);
    for (unsigned version = 0; version < 16; ++version) {
      SCOPED_TRACE("written " + std::to_string(written) + ", nibble " +
                   std::to_string(version));
      BitVector bits = stream;
      for (unsigned b = 0; b < 4; ++b) bits.set(b, (version >> (3 - b)) & 1u);
      if (version == written) {
        EXPECT_EQ(bits, stream);
        const VbsImage back = deserialize_vbs(bits);
        EXPECT_EQ(back.version, written);
        EXPECT_EQ(serialize_vbs(back), bits);
        continue;
      }
      if (version == kVbsVersionFullPairs || version == kVbsVersion) continue;
      EXPECT_EQ(errc_of([&] { deserialize_vbs(bits); }), VbsErrc::kBadVersion);
    }
  }
}

TEST(VbsFormat, SerializeRejectsUnknownVersion) {
  VbsImage img = sample_image();
  img.version = 1;
  EXPECT_THROW(serialize_vbs(img), std::invalid_argument);
  img.version = 18;  // wider than the nibble
  EXPECT_THROW(vbs_size(img), std::invalid_argument);
}

/// The first bit of entry `k`'s connection list in `img`'s stream, whose
/// entries before `k` are all written in full.
std::size_t list_offset(const VbsImage& img, std::size_t k) {
  std::size_t at = vbs_size(img).header;
  for (std::size_t i = 0; i < k; ++i) {
    at += vbs_entry_size(img, img.entries[i]).total();
  }
  const VbsSizeBreakdown e = vbs_entry_size(img, img.entries[k]);
  return at + e.position + e.occupancy + e.logic + e.count;
}

/// `bits` with `n` zero bits inserted at `at`.
BitVector insert_zeros(const BitVector& bits, std::size_t at, unsigned n) {
  BitVector out = bits.slice(0, at);
  out.append(BitVector(n));
  out.append(bits.slice(at, bits.size()));
  return out;
}

// Version 3 is canonical: same_in = 1 is only valid after a first pair,
// and an in port equal to the previous one must take the one-bit form.
TEST(VbsFormat, RejectsNonCanonicalSameIn) {
  const VbsImage img = sample_image();  // entry 0: {0, 21}, {0, 7}
  ASSERT_EQ(img.version, kVbsVersion);
  const BitVector bits = serialize_vbs(img);
  const unsigned m = vbs_field_widths(img.spec, 1, 6, 4).port;
  const std::size_t first = list_offset(img, 0);
  const std::size_t second = first + 1 + 2 * m;
  ASSERT_FALSE(bits.get(first));
  ASSERT_TRUE(bits.get(second));

  // same_in = 1 on the first pair.
  BitVector lead = bits;
  lead.set(first, true);
  EXPECT_EQ(errc_of([&] { deserialize_vbs(lead); }),
            VbsErrc::kBadConnection);

  // The second pair's in (0) coded in full: same_in = 0, then in(M) = 0.
  BitVector full = insert_zeros(bits, second + 1, m);
  full.set(second, false);
  EXPECT_EQ(errc_of([&] { deserialize_vbs(full); }),
            VbsErrc::kBadConnection);
  // The same bits with a different in port are canonical and parse.
  full.set(second + m, true);  // in = 1
  const VbsImage other = deserialize_vbs(full);
  EXPECT_EQ(other.entries[0].conns[1], (VbsConnection{1, 7}));
  EXPECT_EQ(serialize_vbs(other), full);
}

TEST(VbsFormat, RejectsStreamCutAfterSameInBit) {
  const VbsImage img = sample_image();
  const BitVector bits = serialize_vbs(img);
  const unsigned m = vbs_field_widths(img.spec, 1, 6, 4).port;
  const std::size_t second = list_offset(img, 0) + 1 + 2 * m;
  for (const std::size_t cut : {list_offset(img, 0) + 1, second + 1}) {
    SCOPED_TRACE("cut at " + std::to_string(cut));
    EXPECT_EQ(errc_of([&] { deserialize_vbs(bits.slice(0, cut)); }),
              VbsErrc::kTruncated);
  }
}

// A version nibble flipped between 2 and 3 reads the list in the other
// coding: every such stream either parses into an image that re-serializes
// to the same bits or throws a VbsError, whatever its content.
TEST(VbsFormat, FlippedVersionNibbleIsTyped) {
  std::vector<VbsImage> images = {sample_image(1), sample_image(2)};
  VbsImage fanout = sample_image(1);
  fanout.entries[0].conns = {{0, 21}, {0, 7}, {0, 3}, {21, 2}, {21, 4}};
  images.push_back(fanout);
  int parsed = 0, rejected = 0;
  for (VbsImage& img : images) {
    for (const unsigned written : {kVbsVersionFullPairs, kVbsVersion}) {
      img.version = written;
      BitVector bits = serialize_vbs(img);
      bits.set(3, !bits.get(3));  // 2 <-> 3
      try {
        const VbsImage back = deserialize_vbs(bits);
        EXPECT_EQ(back.version, written ^ 1u);
        EXPECT_EQ(serialize_vbs(back), bits);
        ++parsed;
      } catch (const VbsError& e) {
        EXPECT_NE(e.code(), VbsErrc::kNone);
        ++rejected;
      }
    }
  }
  EXPECT_EQ(parsed + rejected, 6);
  EXPECT_GT(rejected, 0);
}

// The preamble keeps the bit that once selected the fan-out coding; a
// stream that sets it is rejected.
TEST(VbsFormat, RejectsCompactBit) {
  BitVector bits = serialize_vbs(sample_image());
  const std::size_t compact = 4 + 8 + 4 + 2;  // version W K sb_pattern
  ASSERT_FALSE(bits.get(compact));
  bits.set(compact, true);
  EXPECT_EQ(errc_of([&] { deserialize_vbs(bits); }), VbsErrc::kBadHeader);
}

TEST(VbsFormat, RejectsHeaderWithOversizedLookahead) {
  VbsImage img = sample_image();
  img.spec.chan_width = 120;  // a ~26 MB table
  img.entries[1].raw_routing =
      BitVector(static_cast<std::size_t>(img.spec.nroute_bits()));
  const BitVector bits = serialize_vbs(img);
  EXPECT_EQ(errc_of([&] { deserialize_vbs(bits); }), VbsErrc::kResourceLimit);
}

TEST(VbsFormat, RejectsOutOfRangeEntryPosition) {
  VbsImage img = sample_image();
  img.entries[0].cx = 40;  // beyond the 6-wide task
  EXPECT_THROW(serialize_vbs(img), std::invalid_argument);
}

TEST(VbsFormat, CarriesSwitchBoxPattern) {
  VbsImage img = sample_image();
  img.spec.sb_pattern = SbPattern::kWilton;
  const VbsImage back = deserialize_vbs(serialize_vbs(img));
  EXPECT_EQ(back.spec.sb_pattern, SbPattern::kWilton);
}

TEST(VbsFormat, RejectsOversizedConnectionList) {
  VbsImage img = sample_image();
  img.entries[0].conns.assign(64, {0, 1});  // route-count field is 4 bits
  EXPECT_THROW(serialize_vbs(img), std::invalid_argument);
}

TEST(VbsFormat, RawSizeMatchesPaperFormula) {
  ArchSpec s;
  s.chan_width = 20;
  EXPECT_EQ(raw_size_bits(s, 35, 35), 35u * 35u * 1004u);
  s.chan_width = 5;
  EXPECT_EQ(raw_size_bits(s, 3, 2), 6u * 284u);
}

// The breakdown totals the stream at c = 1 and 2 over a raw entry, a
// routing-only entry and, at c = 2, a cluster the task edge cuts to one
// column. Each added connection costs 2M list bits in version 2; in
// version 3 it costs 1 + 2M, or 1 + M when it repeats the previous in.
TEST(VbsFormat, SizeScalesWithConnections) {
  for (const auto& [c, version] : {std::pair{1, kVbsVersionFullPairs},
                                  {2, kVbsVersionFullPairs},
                                  {1, kVbsVersion},
                                  {2, kVbsVersion}}) {
    SCOPED_TRACE("c = " + std::to_string(c) + ", version " +
                 std::to_string(version));
    const bool v3 = version == kVbsVersion;
    VbsImage img = sample_image(c);
    img.version = version;
    img.task_w = 5;  // at c = 2 grid column 2 holds one macro column
    VbsEntry routing_only;
    routing_only.cx = 2;
    routing_only.logic.resize(static_cast<std::size_t>(c) * c);
    routing_only.conns.push_back({0, 3});
    img.entries.push_back(routing_only);
    const VbsFieldWidths fw = vbs_field_widths(img.spec, c, 5, 4);

    const VbsSizeBreakdown b = vbs_size(img);
    const BitVector bits = serialize_vbs(img);
    EXPECT_EQ(b.total(), bits.size());
    EXPECT_EQ(serialize_vbs(deserialize_vbs(bits)), bits);
    const std::size_t nlb = 65;
    if (c == 1) {
      // Every c = 1 entry carries its NLB bits, used or not.
      EXPECT_EQ(b.logic, 3 * nlb);
      EXPECT_EQ(b.occupancy, 0u);
    } else {
      EXPECT_EQ(b.logic, nlb);
      EXPECT_EQ(b.occupancy, 3u * 4);
    }
    EXPECT_EQ(b.raw, fw.raw);
    EXPECT_EQ(b.count, 2u * fw.count);
    // Three pairs; in version 3 one of them, {0, 7}, repeats in port 0.
    EXPECT_EQ(b.list, v3 ? 3 + 5 * fw.port : 3u * 2 * fw.port);

    img.entries[0].conns.push_back({3, 9});
    const VbsSizeBreakdown more = vbs_size(img);
    const std::size_t added = (v3 ? 1 : 0) + 2 * fw.port;
    EXPECT_EQ(more.list, b.list + added);
    EXPECT_EQ(more.total(), b.total() + added);
    EXPECT_EQ(more.total(), serialize_vbs(img).size());

    img.entries[0].conns.push_back({3, 10});
    const std::size_t repeat = v3 ? 1 + fw.port : 2 * fw.port;
    EXPECT_EQ(vbs_size(img).list, more.list + repeat);
    EXPECT_EQ(vbs_entry_size(img, img.entries[0]).list,
              vbs_size(img).list - vbs_entry_size(img, img.entries[2]).list);
    EXPECT_EQ(serialize_vbs(deserialize_vbs(serialize_vbs(img))),
              serialize_vbs(img));
  }
}

// Three version-2 streams as the encoder wrote them, packed (pack_bits) and
// in hex: generated 3-PI, 3-PO designs at W = 8 on a 4x4 fabric (seed =
// the netlist and flow seed), the first two from test_journal's
// make_stream(8, 4, 11). Journals, snapshots and files already hold such
// streams: each must still parse, re-serialize to its own bits and decode
// to the configuration it decoded to when it was written.
TEST(VbsFormat, Version2StreamsStillDecode) {
  struct Stored {
    const char* what;
    std::size_t bits;
    const char* hex;
    std::uint64_t config_hash;  ///< stream_content_hash of the decoded config
  };
  const Stored kStreams[] = {
      {"8 LUTs, seed 11, c = 1", 1418,
       "2086008722044c770e6e38462bbf9cb86652660d8d38933958080e394939ba9e6cc7"
       "6265930d32d385515535588680c1e7d921bcc3b1eb5103855885826584b425127bc3"
       "1e466420b85c35c8cc6cc82676624f888f8da2cc1454820b935e59e8a66e60c58453"
       "5575590e10e50e8018d71ccacf745519a004f745c575585e19e8168a65e620970e22"
       "eaab62c72ae61e86676635c81c30e8cf88f7cd5d30873ebdd218b5e488c574584482"
       "61a67a629f1df880",
       0xbec03513e22a7aa5ull},
      {"8 LUTs, seed 11, c = 2", 1286,
       "208601072300b31dc39b8e118aefe684a24f7863c8cc80c2720dd69a766b89b60aca"
       "3954e49385ad99b71cfd711e38e524e6ea79b31d3cfb243798763d6a78da2cc14548"
       "20b9167ba2a8cd0027ba25e3268d42a0ba80ea41a9206cf1b252d24a152c24b1d6d6"
       "9b5668c9a926ce0d004d15d5edafb66138f139c388baaad8b1cab9ba610e7d7ba431"
       "6b8d2129b418cd633d8d21a40691e6be9b0e6927f09fc97edc",
       0xd953fca794923f82ull},
      {"12 LUTs, seed 13, c = 4", 1601,
       "208602072407ff831a1d636770bc6567e0f08b976ed7943b9deadee499cb82121589"
       "a89355c20fe51d42a402a8ca125f09d7f561313c745d46ca55e3f1303591c11d9cc3"
       "bae607bd23f733a0a9a1a256c2386950f1878da510be4e179eef0c579e2e77253663"
       "7bf02b97945a885c88de5f4edf41df445f47df55c6ce46ddc6c746e14a554a44ca41"
       "4a384a4aca66d848584b585a515d51045140515fd145d152c34f435c4343c3604dd6"
       "4dd9cdd24dc54dc8e9d8e2d1e2e3d4e0d4cfd4c0e653665966185be75be300",
       0xa0826907315b7f1dull},
  };
  for (const Stored& s : kStreams) {
    SCOPED_TRACE(s.what);
    const BitVector bits = unpack_bits(bytes_of_hex(s.hex), s.bits);
    ASSERT_EQ(bits.get_bits(0, 4), 2u);
    const VbsImage img = deserialize_vbs(bits);
    EXPECT_EQ(serialize_vbs(img), bits);
    EXPECT_EQ(vbs_size(img).total(), s.bits);
    const BitVector config =
        devirtualize_image(img, FabricLayout(img.spec, 4, 4), {0, 0});
    EXPECT_EQ(stream_content_hash(config), s.config_hash);
  }
}

/// The bytes of a VBS2 file holding `img`'s stream.
std::string file_bytes(const VbsImage& img) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("vbs_format_pin_" + std::to_string(::getpid())))
          .string();
  write_vbs_file(path, serialize_vbs(img));
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  std::filesystem::remove(path);
  return bytes;
}

// Pins the on-disk bytes of one small VBS2 file holding a version-2
// stream. Round trips alone would pass a change to the bit coding or the
// checksum that breaks files already written.
TEST(VbsFormat, Vbs2FileBytesArePinned) {
  VbsImage img = sample_image();
  img.version = kVbsVersionFullPairs;
  EXPECT_EQ(hex_of(file_bytes(img)),
            "56425332ad0100000000000047b413ec1cf8802620560087a0857bd9eac8f351"
            "6240481501e00000000000000000040000000000000000000000020000000000"
            "00000000000000000000");
}

// The same file with the stream in version 3: one same_in bit per pair,
// and entry 0's second in port coded by it alone.
TEST(VbsFormat, Vbs3FileBytesArePinned) {
  EXPECT_EQ(hex_of(file_bytes(sample_image())),
            "56425332aa010000000000000565454a0ed2f26f30560087a0857bd9eac8f351"
            "6240480acf000000000000000000200000000000000000000000100000000000"
            "00000000000000000000");
}

}  // namespace
}  // namespace vbs
