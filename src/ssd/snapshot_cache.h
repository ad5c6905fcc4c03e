/**
 * @file
 * Process-wide cache of preconditioned FTL states. Scenarios that sweep
 * policies or wear levels over one workload (fig17/18/19, the policy
 * ablations) re-derive byte-identical preconditioned drives once per
 * simulation; caching the post-precondition snapshot turns every repeat
 * into the closed-form install and a copy of the block factors, both
 * O(blocks): the retention ages are shared, not copied, and nothing is
 * redrawn.
 *
 * Keys hash every input that shapes the snapshot — geometry, RBER model
 * parameters, seed, fill fraction, age windows, footprint, and the
 * workloads' cold-layout digests — and deliberately exclude policy,
 * P/E cycles, queue depth and ECC buffering, which only affect the
 * simulation after preconditioning; sweeps over those share one entry.
 */

#ifndef RIF_SSD_SNAPSHOT_CACHE_H
#define RIF_SSD_SNAPSHOT_CACHE_H

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <vector>

#include "common/hash.h"
#include "ssd/config.h"
#include "ssd/ftl.h"

namespace rif {

namespace trace {
class TraceSource;
}

namespace ssd {

/** Thread-safe, single-flight snapshot store. */
class FtlSnapshotCache
{
  public:
    static FtlSnapshotCache &instance();

    /** Default on; disable for cache-off equivalence runs and tests. */
    void setEnabled(bool enabled);
    bool enabled() const;

    /** Drop every entry (tests and memory-pressure hygiene). */
    void clear();

    /**
     * Return the snapshot for `key`, invoking `build` exactly once per
     * key even under concurrent lookups (later callers block on the
     * entry until the builder finishes). The returned snapshot is
     * immutable and shared; callers restore from it (Ftl::restore),
     * and a restored FTL keeps the shared ages alive after clear().
     */
    std::shared_ptr<const FtlSnapshot>
    getOrBuild(const CacheKey &key,
               const std::function<FtlSnapshot()> &build);

    std::uint64_t hits() const { return hits_.load(); }
    std::uint64_t misses() const { return misses_.load(); }

  private:
    FtlSnapshotCache() = default;

    struct Entry
    {
        std::mutex mutex;
        std::shared_ptr<const FtlSnapshot> value;
    };

    mutable std::mutex mutex_;
    std::map<CacheKey, std::shared_ptr<Entry>> entries_;
    bool enabled_ = true;
    std::atomic<std::uint64_t> hits_{0};
    std::atomic<std::uint64_t> misses_{0};
};

/**
 * Hash everything the preconditioned state depends on into `h`.
 * Returns false — "run precondition directly, don't cache" — when any
 * source does not advertise a cold-layout digest.
 */
bool preconditionCacheKey(Hasher &h, const SsdConfig &config,
                          std::uint64_t footprint_pages,
                          const std::vector<trace::TraceSource *> &sources);

} // namespace ssd
} // namespace rif

#endif // RIF_SSD_SNAPSHOT_CACHE_H
