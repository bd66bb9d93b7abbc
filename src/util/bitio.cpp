#include "util/bitio.h"

#include <bit>
#include <cassert>

namespace vbs {

void BitWriter::write(std::uint64_t value, unsigned nbits) {
  assert(nbits <= 64);
  if (nbits < 64) {
    assert(value < (std::uint64_t{1} << nbits));
  }
  bits_.append_bits(value, nbits);
}

std::uint64_t BitReader::read(unsigned nbits) {
  if (nbits == 0) return 0;
  if (nbits > remaining()) {
    throw VbsError(VbsErrc::kTruncated, "bit-stream truncated: read past end");
  }
  const std::uint64_t v = bits_->get_bits(pos_, nbits);
  pos_ += nbits;
  return v;
}

bool BitReader::read_bit() {
  if (pos_ >= bits_->size()) {
    throw VbsError(VbsErrc::kTruncated, "bit-stream truncated: read past end");
  }
  return bits_->get(pos_++);
}

BitVector BitReader::read_vector(std::size_t nbits) {
  // Against remaining(), not pos_ + nbits: a declared length near SIZE_MAX
  // would wrap the sum and move the reader backwards.
  if (nbits > remaining()) {
    throw VbsError(VbsErrc::kTruncated, "bit-stream truncated: read past end");
  }
  BitVector out = bits_->slice(pos_, pos_ + nbits);
  pos_ += nbits;
  return out;
}

unsigned bits_for(std::uint64_t n) {
  if (n <= 2) return 1;
  return static_cast<unsigned>(std::bit_width(n - 1));
}

}  // namespace vbs
