#include "store/serving_cache.h"

#include <cstdlib>
#include <utility>

#include "base/parse.h"
#include "methods/factory.h"
#include "obs/metrics.h"

namespace tsg::store {

namespace {

obs::Counter& ServingCounter(const char* name) {
  return obs::MetricRegistry::Global().GetCounter(name);
}

/// Estimated in-memory footprint of a restored model: parameter doubles plus
/// the scalar-config strings. An estimate is enough — the cap bounds memory to
/// the right order, it is not an allocator.
int64_t SnapshotBytes(const core::MethodSnapshot& snapshot) {
  int64_t bytes = 0;
  for (const linalg::Matrix& m : snapshot.params) {
    bytes += m.rows() * m.cols() * static_cast<int64_t>(sizeof(double));
  }
  for (const auto& [key, value] : snapshot.config) {
    bytes += static_cast<int64_t>(key.size() + value.size());
  }
  return bytes;
}

}  // namespace

int64_t ServingCache::DefaultMaxBytes() {
  const char* env = std::getenv("TSGBENCH_SERVING_CACHE_BYTES");
  int64_t parsed = 0;
  if (env == nullptr || !base::ParseNumber(env, &parsed)) return 0;
  return parsed > 0 ? parsed : 0;
}

ServingCache::ServingCache(ArtifactStore* store, int64_t max_bytes)
    : store_(store), max_bytes_(max_bytes) {}

void ServingCache::EvictLocked(const std::string& keep) {
  if (max_bytes_ <= 0) return;
  while (resident_bytes_ > max_bytes_ && methods_.size() > 1) {
    auto victim = methods_.end();
    for (auto it = methods_.begin(); it != methods_.end(); ++it) {
      if (it->first == keep) continue;
      if (victim == methods_.end() || it->second.last_use < victim->second.last_use) {
        victim = it;
      }
    }
    if (victim == methods_.end()) return;  // Only `keep` is resident.
    resident_bytes_ -= victim->second.bytes;
    methods_.erase(victim);
    ServingCounter("serving.evictions").Add();
  }
}

StatusOr<std::shared_ptr<const core::TsgMethod>> ServingCache::GetMethod(
    const core::ModelKey& key) {
  const std::string address = store_->PathFor(key);
  {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = methods_.find(address);
    if (it != methods_.end()) {
      ServingCounter("serving.hits").Add();
      it->second.last_use = ++lru_clock_;
      return it->second.method;
    }
  }
  ServingCounter("serving.misses").Add();

  // Restore outside the lock: artifact IO and network rebuilding are the slow
  // path, and two racing restores of the same key are both correct (the loser
  // is discarded below).
  TSG_ASSIGN_OR_RETURN(const core::MethodSnapshot snapshot, store_->Load(key));
  TSG_ASSIGN_OR_RETURN(std::unique_ptr<core::TsgMethod> method,
                       methods::CreateMethod(key.method));
  TSG_RETURN_IF_ERROR(method->Restore(snapshot));
  const int64_t bytes = SnapshotBytes(snapshot);

  std::lock_guard<std::mutex> lock(mu_);
  auto [it, inserted] = methods_.emplace(address, Entry{});
  if (inserted) {
    it->second.method = std::shared_ptr<const core::TsgMethod>(std::move(method));
    it->second.bytes = bytes;
    resident_bytes_ += bytes;
  }
  it->second.last_use = ++lru_clock_;
  EvictLocked(address);
  return it->second.method;
}

StatusOr<std::vector<std::vector<linalg::Matrix>>> ServingCache::Generate(
    const core::ModelKey& key, const std::vector<core::GenRequest>& requests) {
  for (const core::GenRequest& request : requests) {
    if (request.count < 0) {
      return Status::InvalidArgument("negative count in generation request");
    }
  }
  TSG_ASSIGN_OR_RETURN(const std::shared_ptr<const core::TsgMethod> method,
                       GetMethod(key));
  ServingCounter("serving.requests").Add(static_cast<int64_t>(requests.size()));
  std::vector<std::vector<linalg::Matrix>> result =
      method->GenerateBatch(requests);
  int64_t series = 0;
  for (const auto& block : result) series += static_cast<int64_t>(block.size());
  ServingCounter("serving.series").Add(series);
  return result;
}

bool ServingCache::Holds(const core::ModelKey& key) const {
  const std::string address = store_->PathFor(key);
  std::lock_guard<std::mutex> lock(mu_);
  return methods_.count(address) > 0;
}

size_t ServingCache::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return methods_.size();
}

int64_t ServingCache::resident_bytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  return resident_bytes_;
}

}  // namespace tsg::store
