#include "serve/admission.h"

#include "core/stats.h"

namespace ldpr::serve {

namespace {

// Shard count of the per-user bucket table.
constexpr int kShards = 64;

}  // namespace

UserAdmissionTable::UserAdmissionTable(const AdmissionOptions& options)
    : options_(options) {
  shards_.reserve(kShards);
  for (int i = 0; i < kShards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
}

bool UserAdmissionTable::Admit(long long user, double now) {
  if (!enabled()) return true;
  Shard& shard = ShardFor(user);
  std::lock_guard<std::mutex> guard(shard.mutex);
  auto it = shard.buckets
                .try_emplace(user, options_.per_user_rate,
                             options_.per_user_burst, now)
                .first;
  return it->second.TryAcquire(now);
}

long long UserAdmissionTable::users() const {
  long long total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> guard(shard->mutex);
    total += static_cast<long long>(shard->buckets.size());
  }
  return total;
}

}  // namespace ldpr::serve
