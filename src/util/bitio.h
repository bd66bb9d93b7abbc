// Most-significant-bit-first bit stream writer/reader.
//
// The Virtual Bit-Stream binary format (vbs/vbs_format.h, paper Table I)
// packs variable-width fields back to back; these classes are the only
// place in the code base that performs that packing, so the on-stream
// layout is defined entirely here plus the one field walk in
// vbs/vbs_format.cpp.
#pragma once

#include <cstdint>

#include "util/bitvector.h"
#include "util/error.h"

namespace vbs {

class BitWriter {
 public:
  /// Appends the low `nbits` of `value`, MSB first. nbits may be 0.
  void write(std::uint64_t value, unsigned nbits);

  /// Appends a single bit.
  void write_bit(bool v) { bits_.push_back(v); }

  /// Appends a whole bit vector (used for raw-coded macro payloads).
  void write_vector(const BitVector& v) { bits_.append(v); }

  std::size_t bit_count() const { return bits_.size(); }

  const BitVector& bits() const { return bits_; }
  BitVector take() { return std::move(bits_); }

 private:
  BitVector bits_;
};

/// Throws VbsError{kTruncated} on a read past the end of the stream.
class BitReader {
 public:
  explicit BitReader(const BitVector& bits) : bits_(&bits) {}

  /// Reads `nbits` (MSB first). nbits may be 0, which reads nothing.
  std::uint64_t read(unsigned nbits);

  bool read_bit();

  /// Reads `nbits` into a fresh BitVector (raw macro payloads).
  BitVector read_vector(std::size_t nbits);

  std::size_t position() const { return pos_; }
  std::size_t remaining() const { return bits_->size() - pos_; }
  bool at_end() const { return pos_ == bits_->size(); }

 private:
  const BitVector* bits_;
  std::size_t pos_ = 0;
};

/// Number of bits needed to code values in [0, n-1]; by convention 1 when
/// n <= 1 so that fields are never zero-width ambiguous on the wire.
unsigned bits_for(std::uint64_t n);

}  // namespace vbs
