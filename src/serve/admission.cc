#include "serve/admission.h"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <random>
#include <vector>

#include "core/check.h"
#include "core/hash.h"

namespace ldpr::serve {

namespace {

// Fixed seed: frame hashes only need to agree with themselves within one
// table.
constexpr std::uint64_t kFrameHashSeed = 0x1d9ULL;

constexpr std::uint8_t kAdmitted = 1;    // the bucket level is live
constexpr std::uint8_t kClassified = 2;  // the user is in the ledger
constexpr std::uint32_t kNoOverflow = ~0u;
constexpr std::size_t kMinShardSlots = 16;

}  // namespace

struct alignas(UserTable::kSlotBytes) UserTable::Slot {
  long long user = 0;
  TokenBucket::Level bucket;
  long long last_epoch = -1;  ///< newest epoch with an admitted report
  long long fresh = 0;
  std::uint64_t hashes[2] = {0, 0};      ///< first distinct frames sent
  std::uint32_t overflow = kNoOverflow;  ///< pool chain of the rest
  std::uint8_t inline_hashes = 0;
  std::uint8_t flags = 0;  ///< 0 = empty slot
};

struct UserTable::Shard {
  struct Overflow {
    std::uint64_t hash;
    std::uint32_t next;
  };

  mutable std::mutex mutex;
  std::vector<Slot> slots;  ///< empty or a power of two
  std::vector<Overflow> pool;
  long long occupied = 0;
  long long users = 0;
  long long total_fresh = 0;
  long long max_fresh = 0;
  // Mirrors of slots.data() and slots.size() - 1 for Prefetch, written
  // under the mutex and read without it.
  std::atomic<std::uintptr_t> base{0};
  std::atomic<std::uint64_t> mask{0};

  bool Seen(const Slot& slot, std::uint64_t hash) const {
    for (std::uint8_t i = 0; i < slot.inline_hashes; ++i) {
      if (slot.hashes[i] == hash) return true;
    }
    for (std::uint32_t i = slot.overflow; i != kNoOverflow; i = pool[i].next) {
      if (pool[i].hash == hash) return true;
    }
    return false;
  }

  void Record(Slot& slot, std::uint64_t hash) {
    if (slot.inline_hashes < 2) {
      slot.hashes[slot.inline_hashes++] = hash;
      return;
    }
    pool.push_back({hash, slot.overflow});
    slot.overflow = static_cast<std::uint32_t>(pool.size() - 1);
  }
};

UserTable::UserTable(int shards) : shards_(shards) {
  static_assert(sizeof(Slot) == kSlotBytes);
  LDPR_CHECK(shards >= 1, "user table needs at least one shard");
  std::random_device entropy;
  seed_ = (static_cast<std::uint64_t>(entropy()) << 32) ^ entropy();
  shard_ = std::make_unique<Shard[]>(static_cast<std::size_t>(shards));
}

UserTable::~UserTable() = default;

std::uint64_t UserTable::Place(long long user) const {
  return Mix64(static_cast<std::uint64_t>(user) ^ seed_);
}

// The high half of the placement picks the shard, the low bits the slot.
UserTable::Shard& UserTable::ShardOf(std::uint64_t place) const {
  return shard_[((place >> 32) * static_cast<std::uint64_t>(shards_)) >> 32];
}

UserTable::Slot& UserTable::Locate(Shard& shard, long long user,
                                   std::uint64_t place) {
  for (;;) {
    if (!shard.slots.empty()) {
      const std::size_t mask = shard.slots.size() - 1;
      for (std::size_t i = place & mask;; i = (i + 1) & mask) {
        Slot& slot = shard.slots[i];
        if (slot.flags == 0) {
          if (4 * (shard.occupied + 1) >
              3 * static_cast<long long>(shard.slots.size())) {
            break;  // inserting would pass 3/4 load: grow first
          }
          ++shard.occupied;
          slot.user = user;
          return slot;
        }
        if (slot.user == user) return slot;
      }
    }
    std::vector<Slot> old(std::max(kMinShardSlots, 2 * shard.slots.size()));
    old.swap(shard.slots);
    const std::size_t grown = shard.slots.size() - 1;
    for (const Slot& slot : old) {
      if (slot.flags == 0) continue;
      std::size_t i = Place(slot.user) & grown;
      while (shard.slots[i].flags != 0) i = (i + 1) & grown;
      shard.slots[i] = slot;
    }
    shard.base.store(reinterpret_cast<std::uintptr_t>(shard.slots.data()),
                     std::memory_order_relaxed);
    shard.mask.store(grown, std::memory_order_relaxed);
  }
}

bool UserTable::Admit(long long user, double now, double rate, double burst) {
  const std::uint64_t place = Place(user);
  Shard& shard = ShardOf(place);
  std::lock_guard<std::mutex> guard(shard.mutex);
  Slot& slot = Locate(shard, user, place);
  if ((slot.flags & kAdmitted) == 0) {
    slot.flags |= kAdmitted;
    slot.bucket = {burst, now};  // starts full
  }
  return TokenBucket::TryAcquire(slot.bucket, rate, burst, now);
}

UserTable::FrameClass UserTable::Classify(long long user,
                                          std::span<const std::uint8_t> frame,
                                          long long epoch,
                                          bool trust_replays) {
  const std::uint64_t place = Place(user);
  const std::uint64_t hash =
      trust_replays ? XxHash64(frame.data(), frame.size(), kFrameHashSeed) : 0;
  Shard& shard = ShardOf(place);
  std::lock_guard<std::mutex> guard(shard.mutex);
  Slot& slot = Locate(shard, user, place);
  if ((slot.flags & kClassified) == 0) {
    slot.flags |= kClassified;
    ++shard.users;
  }
  // Admission before classification: an epoch's second report is refused
  // with the user's state untouched — it neither records a hash nor moves
  // last_epoch, so the user's NEXT epoch classifies exactly as if the
  // duplicate had never arrived.
  if (slot.last_epoch == epoch) return FrameClass::kDuplicate;
  slot.last_epoch = epoch;
  if (trust_replays) {
    if (shard.Seen(slot, hash)) return FrameClass::kMemoized;
    shard.Record(slot, hash);
  }
  ++slot.fresh;
  ++shard.total_fresh;
  shard.max_fresh = std::max(shard.max_fresh, slot.fresh);
  return FrameClass::kFresh;
}

UserTable::UserStats UserTable::Scan() const {
  UserStats stats;
  for (int s = 0; s < shards_; ++s) {
    const Shard& shard = shard_[s];
    std::lock_guard<std::mutex> guard(shard.mutex);
    stats.users += shard.users;
    stats.total_fresh += shard.total_fresh;
    stats.max_fresh = std::max(stats.max_fresh, shard.max_fresh);
    stats.occupied += shard.occupied;
    stats.capacity += static_cast<long long>(shard.slots.size());
    stats.overflow_bytes += static_cast<long long>(
        shard.pool.capacity() * sizeof(Shard::Overflow));
  }
  return stats;
}

void UserTable::Prefetch(long long user) const {
  const std::uint64_t place = Place(user);
  const Shard& shard = ShardOf(place);
  const std::uintptr_t slot =
      shard.base.load(std::memory_order_relaxed) +
      (place & shard.mask.load(std::memory_order_relaxed)) * kSlotBytes;
  __builtin_prefetch(reinterpret_cast<const void*>(slot), 1);
}

UserAdmissionTable::UserAdmissionTable(const AdmissionOptions& options,
                                       UserTable* shared)
    : options_(options),
      owned_(shared == nullptr ? std::make_unique<UserTable>() : nullptr),
      table_(shared == nullptr ? owned_.get() : shared) {}

}  // namespace ldpr::serve
