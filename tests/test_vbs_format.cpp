// VBS binary format tests: Table I field widths, serialize/deserialize
// round-trips, malformed-stream rejection.
#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <iterator>

#include "errc.h"
#include "hex.h"
#include "util/bitio.h"
#include "util/error.h"
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
  // bits, route count on ceil(log2(2W)), endpoints on M bits.
  VbsImage img = sample_image();
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

TEST(VbsFormat, ParsesVersion2AndRejectsEveryOtherNibble) {
  const BitVector v2 = serialize_vbs(sample_image());
  for (unsigned version = 0; version < 16; ++version) {
    SCOPED_TRACE("version " + std::to_string(version));
    BitVector bits = v2;
    for (unsigned b = 0; b < 4; ++b) bits.set(b, (version >> (3 - b)) & 1u);
    if (version == kVbsVersion) {
      EXPECT_EQ(bits, v2);
      EXPECT_EQ(serialize_vbs(deserialize_vbs(bits)), bits);
      continue;
    }
    EXPECT_EQ(errc_of([&] { deserialize_vbs(bits); }), VbsErrc::kBadVersion);
  }
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
// column; each added connection costs 2M list bits.
TEST(VbsFormat, SizeScalesWithConnections) {
  for (const int c : {1, 2}) {
    SCOPED_TRACE("c = " + std::to_string(c));
    VbsImage img = sample_image(c);
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
    EXPECT_EQ(b.list, 3u * 2 * fw.port);

    img.entries[0].conns.push_back({3, 9});
    const VbsSizeBreakdown more = vbs_size(img);
    EXPECT_EQ(more.list, b.list + 2 * fw.port);
    EXPECT_EQ(more.total(), b.total() + 2 * fw.port);
    EXPECT_EQ(more.total(), serialize_vbs(img).size());
  }
}

// Pins the on-disk bytes of one small VBS2 file. Round trips alone would
// pass a change to the bit coding or the checksum that breaks files
// already written.
TEST(VbsFormat, Vbs2FileBytesArePinned) {
  const std::string path =
      (std::filesystem::temp_directory_path() /
       ("vbs_format_pin_" + std::to_string(::getpid())))
          .string();
  write_vbs_file(path, serialize_vbs(sample_image()));
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is),
                 std::istreambuf_iterator<char>());
  }
  std::filesystem::remove(path);
  EXPECT_EQ(hex_of(bytes),
            "56425332ad0100000000000047b413ec1cf8802620560087a0857bd9eac8f351"
            "6240481501e00000000000000000040000000000000000000000020000000000"
            "00000000000000000000");
}

}  // namespace
}  // namespace vbs
