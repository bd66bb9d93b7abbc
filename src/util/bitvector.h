// Dense bit vector used for configuration frames and raw bit-streams.
//
// The FPGA configuration memory is modelled as a flat sequence of bits; a
// BitVector provides the storage plus the slicing operations the bit-stream
// generators need (append, extract, compare ranges).
#pragma once

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

namespace vbs {

class BitVector {
 public:
  BitVector() = default;
  explicit BitVector(std::size_t nbits, bool value = false);

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  bool get(std::size_t i) const;
  void set(std::size_t i, bool v);

  /// Appends a single bit at the end.
  void push_back(bool v);

  /// Appends the low `nbits` of `value`, most-significant-first.
  void append_bits(std::uint64_t value, unsigned nbits);

  /// Appends all bits of `other`.
  void append(const BitVector& other);

  /// Reads `nbits` bits starting at `pos`, most-significant-first.
  std::uint64_t get_bits(std::size_t pos, unsigned nbits) const;

  /// Extracts the half-open bit range [begin, end).
  BitVector slice(std::size_t begin, std::size_t end) const;

  /// Overwrites bits starting at `pos` with the contents of `src`.
  void overwrite(std::size_t pos, const BitVector& src);

  /// ORs the `n` bits of `src` starting at `src_pos` into this vector
  /// starting at `pos`: sets bits, never clears them. `src` must not be
  /// this vector. Works a 64-bit word at a time.
  void or_range(std::size_t pos, const BitVector& src, std::size_t src_pos,
                std::size_t n);

  /// Clears the half-open bit range [pos, pos + n).
  void clear_range(std::size_t pos, std::size_t n);

  /// Number of set bits.
  std::size_t popcount() const;

  /// Sets every bit to zero, keeping the size.
  void reset();

  /// Resizes to `nbits`, zero-filling any new bits.
  void resize(std::size_t nbits);

  bool operator==(const BitVector& other) const;
  bool operator!=(const BitVector& other) const { return !(*this == other); }

  /// "0101..." debug rendering (possibly truncated for very long vectors).
  std::string to_string(std::size_t max_bits = 256) const;

  /// Raw word storage, 64 bits per word, bit i at word i/64 bit i%64.
  const std::vector<std::uint64_t>& words() const { return words_; }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t size_ = 0;
};

}  // namespace vbs
