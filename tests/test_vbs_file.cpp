// VBS file-container tests: byte packing and disk round trips.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <unistd.h>
#include <filesystem>

#include "util/error.h"
#include "util/fault.h"
#include "util/io.h"
#include "util/rng.h"
#include "vbs/vbs_file.h"

namespace vbs {
namespace {

std::string temp_path(const char* name) {
  return (std::filesystem::temp_directory_path() /
          (std::string("vbs_test_") + name + "_" +
           std::to_string(::getpid())))
      .string();
}

TEST(PackBits, MsbFirstWithinBytes) {
  BitVector v;
  v.append_bits(0b10110001, 8);
  v.append_bits(0b101, 3);  // partial trailing byte, zero padded
  const std::string bytes = pack_bits(v);
  ASSERT_EQ(bytes.size(), 2u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0b10110001);
  EXPECT_EQ(static_cast<unsigned char>(bytes[1]), 0b10100000);
  EXPECT_EQ(unpack_bits(bytes, 11), v);
}

TEST(PackBits, EmptyVector) {
  const BitVector v;
  EXPECT_TRUE(pack_bits(v).empty());
  EXPECT_EQ(unpack_bits("", 0), v);
}

TEST(PackBits, RandomRoundTrip) {
  Rng rng(13);
  for (int trial = 0; trial < 20; ++trial) {
    BitVector v;
    const int n = rng.next_int(0, 300);
    for (int i = 0; i < n; ++i) v.push_back(rng.next_bool(0.5));
    EXPECT_EQ(unpack_bits(pack_bits(v), v.size()), v);
  }
}

TEST(PackBits, RejectsShortBuffer) {
  EXPECT_THROW(unpack_bits("a", 9), std::runtime_error);
}

TEST(VbsFile, DiskRoundTrip) {
  Rng rng(17);
  BitVector v;
  for (int i = 0; i < 1234; ++i) v.push_back(rng.next_bool(0.3));
  const std::string path = temp_path("roundtrip");
  write_vbs_file(path, v);
  EXPECT_EQ(read_vbs_file(path), v);
  std::filesystem::remove(path);
}

// write_vbs_file replaces the file atomically: a crash mid-write leaves
// the previous stream, never a torn container, under the real name.
TEST(VbsFile, CrashMidWriteKeepsThePreviousStream) {
  const std::string path = temp_path("atomic");
  const BitVector first(100, true);
  write_vbs_file(path, first);
  const FaultPlan plan = FaultPlan::parse("crash=0");
  IoFaultInjector inj(&plan);
  {
    ScopedIoFaults scope(&inj);
    EXPECT_THROW(write_vbs_file(path, BitVector(300, false)), CrashInjected);
  }
  EXPECT_EQ(read_vbs_file(path), first);
  std::filesystem::remove(path);
  std::filesystem::remove(path + ".tmp");
}

TEST(VbsFile, RejectsBadMagicAndTruncation) {
  const std::string path = temp_path("bad");
  {
    std::ofstream os(path, std::ios::binary);
    os << "NOTAVBSFILE";
  }
  EXPECT_THROW(read_vbs_file(path), std::runtime_error);
  BitVector v(100, true);
  write_vbs_file(path, v);
  std::filesystem::resize_file(path, 14);  // cut into the header
  EXPECT_THROW(read_vbs_file(path), std::runtime_error);
  write_vbs_file(path, v);
  std::filesystem::resize_file(path, 25);  // cut into the payload
  EXPECT_THROW(read_vbs_file(path), std::runtime_error);
  std::filesystem::remove(path);
  EXPECT_THROW(read_vbs_file(path), std::runtime_error);  // missing file
}

// The container checksum makes every single-byte corruption a typed
// rejection: no byte of a VBS2 file is slack.
TEST(VbsFile, EveryByteCorruptionIsRejectedTyped) {
  const std::string path = temp_path("corrupt");
  Rng rng(23);
  BitVector v;
  for (int i = 0; i < 203; ++i) v.push_back(rng.next_bool(0.4));  // odd tail
  write_vbs_file(path, v);
  std::string original;
  {
    std::ifstream is(path, std::ios::binary);
    original.assign(std::istreambuf_iterator<char>(is), {});
  }
  ASSERT_EQ(original.size(), 20u + (203 + 7) / 8);
  for (std::size_t byte = 0; byte < original.size(); ++byte) {
    std::string bad = original;
    bad[byte] = static_cast<char>(bad[byte] ^ 0x10);
    {
      std::ofstream os(path, std::ios::binary | std::ios::trunc);
      os.write(bad.data(), static_cast<std::streamsize>(bad.size()));
    }
    try {
      read_vbs_file(path);
      FAIL() << "byte " << byte << " corruption was accepted";
    } catch (const VbsError& e) {
      EXPECT_NE(e.code(), VbsErrc::kNone) << "byte " << byte;
    }
  }
  std::filesystem::remove(path);
}

TEST(VbsFile, LegacyVbs1ContainerIsRejectedWithBadVersion) {
  const std::string path = temp_path("legacy");
  BitVector v(64, true);
  write_vbs_file(path, v);
  std::string bytes;
  {
    std::ifstream is(path, std::ios::binary);
    bytes.assign(std::istreambuf_iterator<char>(is), {});
  }
  bytes[3] = '1';  // masquerade as the pre-checksum container
  {
    std::ofstream os(path, std::ios::binary | std::ios::trunc);
    os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    read_vbs_file(path);
    FAIL() << "legacy container was accepted";
  } catch (const VbsError& e) {
    EXPECT_EQ(e.code(), VbsErrc::kBadVersion);
  }
  std::filesystem::remove(path);
}

}  // namespace
}  // namespace vbs
