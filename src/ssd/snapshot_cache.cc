#include "ssd/snapshot_cache.h"

#include "common/metrics.h"
#include "nand/rber_model.h"
#include "trace/trace.h"

namespace rif {
namespace ssd {

namespace {

/** Bump when the snapshot semantics or key contents change. */
constexpr int kSnapshotKeySchema = 2; // 2: cell type + hybrid SLC keys

const metrics::Counter mSnapshotHits{
    "cache.snapshot.hits", "ops", "preconditioned-FTL snapshot reuses"};
const metrics::Counter mSnapshotMisses{
    "cache.snapshot.misses", "ops", "snapshot builds (preconditions run)"};

} // namespace

FtlSnapshotCache &
FtlSnapshotCache::instance()
{
    static FtlSnapshotCache cache;
    return cache;
}

void
FtlSnapshotCache::setEnabled(bool enabled)
{
    std::unique_lock<std::mutex> lock(mutex_);
    enabled_ = enabled;
}

bool
FtlSnapshotCache::enabled() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return enabled_;
}

void
FtlSnapshotCache::clear()
{
    std::unique_lock<std::mutex> lock(mutex_);
    entries_.clear();
}

std::shared_ptr<const FtlSnapshot>
FtlSnapshotCache::getOrBuild(const CacheKey &key,
                             const std::function<FtlSnapshot()> &build)
{
    std::shared_ptr<Entry> entry;
    {
        std::unique_lock<std::mutex> lock(mutex_);
        auto &slot = entries_[key];
        if (!slot)
            slot = std::make_shared<Entry>();
        entry = slot;
    }
    // Per-entry lock: concurrent requests for the same key wait for the
    // one builder; different keys build in parallel.
    std::unique_lock<std::mutex> lock(entry->mutex);
    if (!entry->value) {
        entry->value = std::make_shared<const FtlSnapshot>(build());
        misses_.fetch_add(1, std::memory_order_relaxed);
        mSnapshotMisses.inc();
    } else {
        hits_.fetch_add(1, std::memory_order_relaxed);
        mSnapshotHits.inc();
    }
    return entry->value;
}

bool
preconditionCacheKey(Hasher &h, const SsdConfig &config,
                     std::uint64_t footprint_pages,
                     const std::vector<trace::TraceSource *> &sources)
{
    h.add("ftl-precondition");
    h.add(kSnapshotKeySchema);

    const auto &g = config.geometry;
    h.add(g.channels);
    h.add(g.diesPerChannel);
    h.add(g.planesPerDie);
    h.add(g.blocksPerPlane);
    h.add(g.pagesPerBlock);
    h.add(g.pageBytes);
    h.add(g.codewordsPerPage);

    // The RBER parameters drive the per-block factor draws at the start
    // of precondition(), which the snapshot stores and which advance the
    // generator the retention draws then continue from.
    nand::hashRberParams(h, config.rber);

    // Cell type and hybrid SLC split change the page-type striping and
    // per-read typing of everything the snapshot captures.
    h.add(static_cast<int>(config.cellType));
    h.add(config.slcBlockFraction);
    h.add(config.slcRberFactor);

    h.add(config.seed);
    h.add(config.preconditionFill);
    h.add(config.coldAgeMinDays);
    h.add(config.refreshDays);
    h.add(config.hotAgeDays);

    h.add(footprint_pages);
    h.add(sources.size());
    for (const trace::TraceSource *s : sources)
        if (!s->preconditionDigest(h))
            return false;
    return true;
}

} // namespace ssd
} // namespace rif
