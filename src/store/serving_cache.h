#ifndef TSG_STORE_SERVING_CACHE_H_
#define TSG_STORE_SERVING_CACHE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "base/status.h"
#include "core/method.h"
#include "store/artifact_store.h"

namespace tsg::store {

/// Generation serving layer over an ArtifactStore: restores a trained model at
/// most once per key and serves every subsequent Generate from the warm
/// in-memory instance.
///
/// The first request for a key loads + verifies the artifact, rebuilds the
/// method via methods::CreateMethod + Restore, and caches the instance; later
/// requests reuse it directly. Each request samples through the method's one
/// `Generate(count, Rng(seed))` (TsgMethod::GenerateBatch), so results do not
/// depend on how requests are grouped or which process served them.
///
/// Residency is bounded: when `max_bytes` is positive, the cache evicts
/// least-recently-used models until the estimated resident parameter bytes fit
/// under the cap (the entry just touched is never evicted, so a single model
/// larger than the cap still serves). Eviction is why GetMethod hands out
/// shared ownership — an in-flight Generate keeps its model alive after the
/// cache dropped it, and the memory is reclaimed when the last request
/// finishes. Evicted models restore again from the store on next use, which is
/// bit-identical by the Snapshot/Restore contract.
///
/// Thread-safe: the method map is mutex-guarded; generation itself runs outside
/// the lock (fitted methods are const and concurrent-safe per TsgMethod's
/// contract).
///
/// Telemetry (tsg::obs counters): serving.hits, serving.misses,
/// serving.evictions, serving.requests, serving.series.
class ServingCache {
 public:
  /// Serves artifacts from `store` (not owned; must outlive the cache).
  /// `max_bytes` caps estimated resident model bytes; <= 0 means unbounded.
  explicit ServingCache(ArtifactStore* store,
                        int64_t max_bytes = DefaultMaxBytes());

  /// The byte cap from TSGBENCH_SERVING_CACHE_BYTES, or 0 (unbounded) unless
  /// the variable is a whole positive integer ("64M" is unbounded, not 64).
  static int64_t DefaultMaxBytes();

  /// The warm method for `key`: restored from the store on first use, cached
  /// (and LRU-touched) after. Fails when no artifact exists, the artifact is
  /// corrupt, or the method cannot be rebuilt. The returned pointer keeps the
  /// model alive even if the cache evicts it concurrently.
  StatusOr<std::shared_ptr<const core::TsgMethod>> GetMethod(
      const core::ModelKey& key);

  /// Serves a batch of generation requests against the model for `key`.
  /// Element j holds requests[j].count series, bit-identical to
  /// `Generate(requests[j].count, Rng(requests[j].seed))` on the restored
  /// model.
  StatusOr<std::vector<std::vector<linalg::Matrix>>> Generate(
      const core::ModelKey& key,
      const std::vector<core::GenRequest>& requests);

  /// True when the model for `key` is resident: restored from a verified
  /// artifact and not evicted since. Does not count as a use for LRU.
  bool Holds(const core::ModelKey& key) const;

  /// Number of resident models (for tests and capacity checks).
  size_t size() const;

  /// Estimated bytes of resident model state (sum of Entry::bytes).
  int64_t resident_bytes() const;

  /// The configured cap (<= 0 = unbounded).
  int64_t max_bytes() const { return max_bytes_; }

 private:
  struct Entry {
    std::shared_ptr<const core::TsgMethod> method;
    int64_t bytes = 0;     ///< Estimated snapshot size (params + config).
    uint64_t last_use = 0;  ///< LRU clock value of the most recent touch.
  };

  /// Drops LRU entries until resident bytes fit the cap, never evicting
  /// `keep`. Caller holds mu_.
  void EvictLocked(const std::string& keep);

  ArtifactStore* store_;
  const int64_t max_bytes_;
  mutable std::mutex mu_;
  uint64_t lru_clock_ = 0;
  int64_t resident_bytes_ = 0;
  std::map<std::string, Entry> methods_;
};

}  // namespace tsg::store

#endif  // TSG_STORE_SERVING_CACHE_H_
