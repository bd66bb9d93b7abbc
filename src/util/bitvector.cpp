#include "util/bitvector.h"

#include <algorithm>
#include <bit>
#include <cassert>

namespace vbs {

namespace {

/// The low `n` bits set, 1 <= n <= 64.
std::uint64_t low_mask(std::size_t n) {
  return n == 64 ? ~std::uint64_t{0} : (std::uint64_t{1} << n) - 1;
}

}  // namespace

BitVector::BitVector(std::size_t nbits, bool value) {
  resize(nbits);
  if (value) {
    for (std::size_t i = 0; i < nbits; ++i) set(i, true);
  }
}

bool BitVector::get(std::size_t i) const {
  assert(i < size_);
  return (words_[i >> 6] >> (i & 63)) & 1u;
}

void BitVector::set(std::size_t i, bool v) {
  assert(i < size_);
  const std::uint64_t mask = std::uint64_t{1} << (i & 63);
  if (v) {
    words_[i >> 6] |= mask;
  } else {
    words_[i >> 6] &= ~mask;
  }
}

void BitVector::push_back(bool v) {
  if ((size_ & 63) == 0) words_.push_back(0);
  ++size_;
  set(size_ - 1, v);
}

void BitVector::append_bits(std::uint64_t value, unsigned nbits) {
  assert(nbits <= 64);
  for (unsigned i = nbits; i-- > 0;) {
    push_back((value >> i) & 1u);
  }
}

void BitVector::append(const BitVector& other) {
  for (std::size_t i = 0; i < other.size(); ++i) push_back(other.get(i));
}

std::uint64_t BitVector::get_bits(std::size_t pos, unsigned nbits) const {
  assert(nbits <= 64);
  assert(pos + nbits <= size_);
  std::uint64_t out = 0;
  for (unsigned i = 0; i < nbits; ++i) {
    out = (out << 1) | static_cast<std::uint64_t>(get(pos + i));
  }
  return out;
}

BitVector BitVector::slice(std::size_t begin, std::size_t end) const {
  assert(begin <= end && end <= size_);
  BitVector out;
  for (std::size_t i = begin; i < end; ++i) out.push_back(get(i));
  return out;
}

void BitVector::overwrite(std::size_t pos, const BitVector& src) {
  clear_range(pos, src.size());
  or_range(pos, src, 0, src.size());
}

void BitVector::or_range(std::size_t pos, const BitVector& src,
                         std::size_t src_pos, std::size_t n) {
  assert(&src != this);
  assert(pos + n <= size_ && src_pos + n <= src.size_);
  // One destination word per step: gather the next `take` source bits,
  // which straddle at most two source words, and shift them into place.
  while (n > 0) {
    const std::size_t off = pos & 63;
    const std::size_t take = std::min(n, 64 - off);
    const std::size_t sw = src_pos >> 6;
    const std::size_t sshift = src_pos & 63;
    std::uint64_t bits = src.words_[sw] >> sshift;
    if (sshift + take > 64) bits |= src.words_[sw + 1] << (64 - sshift);
    words_[pos >> 6] |= (bits & low_mask(take)) << off;
    pos += take;
    src_pos += take;
    n -= take;
  }
}

void BitVector::clear_range(std::size_t pos, std::size_t n) {
  assert(pos + n <= size_);
  while (n > 0) {
    const std::size_t off = pos & 63;
    const std::size_t take = std::min(n, 64 - off);
    words_[pos >> 6] &= ~(low_mask(take) << off);
    pos += take;
    n -= take;
  }
}

std::size_t BitVector::popcount() const {
  std::size_t n = 0;
  for (std::uint64_t w : words_) n += static_cast<std::size_t>(std::popcount(w));
  return n;
}

void BitVector::reset() {
  for (auto& w : words_) w = 0;
}

void BitVector::resize(std::size_t nbits) {
  const std::size_t nwords = (nbits + 63) / 64;
  words_.resize(nwords, 0);
  // Clear any bits beyond the new size so equality stays word-comparable.
  if (nbits < size_ && (nbits & 63) != 0) {
    words_[nbits >> 6] &= (std::uint64_t{1} << (nbits & 63)) - 1;
  }
  size_ = nbits;
}

bool BitVector::operator==(const BitVector& other) const {
  return size_ == other.size_ && words_ == other.words_;
}

std::string BitVector::to_string(std::size_t max_bits) const {
  std::string s;
  const std::size_t n = size_ < max_bits ? size_ : max_bits;
  s.reserve(n + 3);
  for (std::size_t i = 0; i < n; ++i) s.push_back(get(i) ? '1' : '0');
  if (n < size_) s += "...";
  return s;
}

}  // namespace vbs
