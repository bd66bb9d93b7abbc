#include "rtc/service/stream_cache.h"

#include <stdexcept>
#include <utility>

#include "util/hash.h"
#include "util/telemetry.h"

namespace vbs {

std::uint64_t stream_content_hash(const BitVector& stream) {
  // FNV-1a over the 64-bit words, then the bit length (trailing padding
  // bits inside the last word are always zero, so words + length identify
  // the content exactly).
  std::uint64_t h = kFnvOffset64;
  for (const std::uint64_t w : stream.words()) h = hash_u64(h, w);
  return hash_u64(h, static_cast<std::uint64_t>(stream.size()));
}

DecodedStreamCache::DecodedStreamCache(std::size_t capacity_bits)
    : capacity_bits_(capacity_bits) {}

std::shared_ptr<const DecodedStream> DecodedStreamCache::find(
    std::uint64_t key) {
  const auto it = map_.find(key);
  if (it == map_.end()) {
    ++misses_;
    telem::counter_add("rtc.cache.miss");
    return nullptr;
  }
  ++hits_;
  telem::counter_add("rtc.cache.hit");
  lru_.splice(lru_.begin(), lru_, it->second);
  return it->second->value;
}

void DecodedStreamCache::insert(std::uint64_t key,
                                std::shared_ptr<const DecodedStream> value) {
  if (fault_plan_ != nullptr && fault_plan_->cache_drops(insert_seq_++)) {
    ++fault_drops_;
    telem::counter_add("rtc.cache.fault_drop");
    return;
  }
  if (const auto it = map_.find(key); it != map_.end()) {
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  const std::size_t bits = value->footprint_bits();
  if (bits > capacity_bits_) return;  // would evict everything and still miss
  lru_.push_front({key, std::move(value)});
  map_.emplace(key, lru_.begin());
  size_bits_ += bits;
  ++insertions_;
  telem::counter_add("rtc.cache.insert");
  evict_until_fits();
}

std::vector<std::pair<std::uint64_t, std::shared_ptr<const DecodedStream>>>
DecodedStreamCache::entries_mru() const {
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const DecodedStream>>>
      out;
  out.reserve(lru_.size());
  for (const Node& n : lru_) out.emplace_back(n.key, n.value);
  return out;
}

void DecodedStreamCache::restore_entry(
    std::uint64_t key, std::shared_ptr<const DecodedStream> value) {
  if (map_.count(key) != 0) {
    throw std::logic_error("restore_entry: duplicate key");
  }
  size_bits_ += value->footprint_bits();
  lru_.push_back({key, std::move(value)});  // MRU -> LRU call order
  map_.emplace(key, std::prev(lru_.end()));
}

void DecodedStreamCache::evict_until_fits() {
  while (size_bits_ > capacity_bits_ && !lru_.empty()) {
    const Node& victim = lru_.back();
    size_bits_ -= victim.value->footprint_bits();
    map_.erase(victim.key);
    lru_.pop_back();
    ++evictions_;
    telem::counter_add("rtc.cache.evict");
  }
}

}  // namespace vbs
