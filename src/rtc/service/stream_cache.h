// Decoded-stream cache: the paper's decode-cost trade-off amortized across
// tenants.
//
// De-virtualizing a VBS is the expensive half of a load (A* routing per
// connection-list entry); the decoded result — the per-entry routing
// payloads — is position-independent, because a VBS decodes identically at
// any origin (paper Section I: relocation). So the service caches decoded
// payloads keyed by a content hash of the serialized stream: a repeated
// load of the same task skips devirtualization entirely, and a relocation
// copies the cached payload instead of re-routing. Capacity is bounded in
// payload bits with LRU eviction. The cached value, DecodedStream, and the
// serial decode_stream loop that produces one live in vbs/devirtualizer.h.
#pragma once

#include <cstdint>
#include <list>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "util/bitvector.h"
#include "util/fault.h"
#include "vbs/devirtualizer.h"
#include "vbs/vbs_format.h"

namespace vbs {

/// 64-bit content hash of a serialized stream (FNV-1a over the payload
/// words plus the bit length). Identical streams always collide — that is
/// the point; distinct streams colliding is astronomically unlikely and
/// would only mis-share a decode, never corrupt memory.
std::uint64_t stream_content_hash(const BitVector& stream);

class DecodedStreamCache {
 public:
  /// `capacity_bits` bounds the sum of cached payload footprints; 0
  /// disables caching entirely (every find misses, inserts are dropped).
  explicit DecodedStreamCache(std::size_t capacity_bits);

  /// Looks up a stream by content hash; touches LRU order and counts a hit
  /// or miss. Returned pointer stays valid after eviction (shared).
  std::shared_ptr<const DecodedStream> find(std::uint64_t key);

  /// Inserts a decoded stream, evicting least-recently-used entries until
  /// the footprint fits. Streams larger than the whole capacity are not
  /// cached. Re-inserting an existing key just touches it.
  void insert(std::uint64_t key, std::shared_ptr<const DecodedStream> value);

  std::size_t capacity_bits() const { return capacity_bits_; }
  std::size_t size_bits() const { return size_bits_; }
  std::size_t entries() const { return map_.size(); }

  long long hits() const { return hits_; }
  long long misses() const { return misses_; }
  long long insertions() const { return insertions_; }
  long long evictions() const { return evictions_; }
  long long fault_drops() const { return fault_drops_; }

  /// Installs a deterministic fault plan (util/fault.h): insertions are
  /// then dropped with the plan's cache rate, keyed by a serial insertion
  /// counter — modeling transient cache-memory failure. The service keeps
  /// working (the drop just costs a future re-decode); nullptr disables.
  void set_fault_plan(const FaultPlan* plan) { fault_plan_ = plan; }

  // --- snapshot / recovery hooks (rtc/service/journal.h) ---------------------

  /// Entries in MRU -> LRU order, for snapshots.
  std::vector<std::pair<std::uint64_t, std::shared_ptr<const DecodedStream>>>
  entries_mru() const;
  /// Re-adopts a snapshotted entry, bypassing fault rolls and counters.
  /// Call in MRU -> LRU order on an empty cache to rebuild it exactly.
  void restore_entry(std::uint64_t key,
                     std::shared_ptr<const DecodedStream> value);
  std::uint64_t insert_seq() const { return insert_seq_; }
  void restore_counters(long long hits, long long misses, long long insertions,
                        long long evictions, long long fault_drops,
                        std::uint64_t insert_seq) {
    hits_ = hits;
    misses_ = misses;
    insertions_ = insertions;
    evictions_ = evictions;
    fault_drops_ = fault_drops;
    insert_seq_ = insert_seq;
  }

 private:
  struct Node {
    std::uint64_t key;
    std::shared_ptr<const DecodedStream> value;
  };

  void evict_until_fits();

  std::size_t capacity_bits_;
  std::size_t size_bits_ = 0;
  std::list<Node> lru_;  ///< front = most recently used
  std::unordered_map<std::uint64_t, std::list<Node>::iterator> map_;
  long long hits_ = 0;
  long long misses_ = 0;
  long long insertions_ = 0;
  long long evictions_ = 0;
  long long fault_drops_ = 0;
  const FaultPlan* fault_plan_ = nullptr;
  std::uint64_t insert_seq_ = 0;
};

}  // namespace vbs
