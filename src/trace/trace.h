/**
 * @file
 * I/O trace abstractions: the record format consumed by the SSD
 * simulator's closed-loop replayer, and synthetic workload generators
 * reproducing the key characteristics (Table II) of the AliCloud and
 * Systor traces the paper evaluates with. Trace files are read by
 * StreamTrace (trace/stream.h).
 */

#ifndef RIF_TRACE_TRACE_H
#define RIF_TRACE_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/units.h"

namespace rif {

class Hasher;

namespace trace {

/** One host I/O request, in units of 16-KiB flash pages. */
struct IoRecord
{
    bool isRead = true;
    std::uint64_t lpn = 0;  ///< first logical page number
    std::uint32_t pages = 1; ///< request length in pages
    /**
     * Open-loop arrival time relative to the run start. Closed-loop
     * replay ignores it (the queue depth paces injection); the
     * timestamp-driven ArrivalPolicy injects at exactly this tick.
     * Zero (the default) means "as early as possible".
     */
    Tick arrival = 0;
};

/** Pull-based request stream. */
class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next request; false at end of stream. */
    virtual bool next(IoRecord &out) = 0;

    /** Logical footprint in pages (defines the FTL mapping size). */
    virtual std::uint64_t footprintPages() const = 0;

    /**
     * Pages never written by this stream (the FTL assigns them long
     * retention ages). Empty means "derive nothing": all pages hot.
     * The boundary style matches our generators: [coldStart, end).
     */
    virtual std::uint64_t coldRegionStart() const
    {
        return footprintPages();
    }

    /**
     * Whether a page is cold (never written by this stream). The
     * default derives it from the single cold boundary; composite
     * sources (multi-tenant) override it.
     */
    virtual bool
    isCold(std::uint64_t lpn) const
    {
        return lpn >= coldRegionStart() && lpn < footprintPages();
    }

    /**
     * Feed everything the preconditioned FTL state can depend on —
     * footprint and cold layout — into `h` and return true, or return
     * false to opt out of FTL snapshot caching. The default opts out:
     * subclasses (tests in particular) may override isCold() in ways a
     * generic digest cannot see, and a stale cache hit would silently
     * corrupt results. Sources that do answer isCold() from hashable
     * state opt in explicitly.
     */
    virtual bool preconditionDigest(Hasher &h) const;
};

/** Named workload characteristics (paper Table II). */
struct WorkloadSpec
{
    std::string name;
    double readRatio = 0.5;     ///< fraction of requests that are reads
    double coldReadRatio = 0.5; ///< fraction of reads hitting cold pages
    std::uint64_t footprintPages = 1u << 19; ///< 8 GiB at 16 KiB/page
    double coldFraction = 0.6;  ///< fraction of footprint that is cold
    double seqProbability = 0.35; ///< chance a read continues a stream
    double zipfTheta = 0.9;     ///< hot-set skew for writes/hot reads
    std::uint32_t maxPages = 16; ///< max request size (16 -> 256 KiB)
};

/** The eight evaluated workloads (Table II read/cold-read ratios). */
std::vector<WorkloadSpec> paperWorkloads();

/** Look up one of the paper workloads by name (fatal if unknown). */
WorkloadSpec workloadByName(const std::string &name);

/**
 * Non-fatal lookup for option validation (`--workload` overrides):
 * nullptr when the name is not a paper workload.
 */
const WorkloadSpec *findWorkload(const std::string &name);

/** The paper workload names in Table II order. */
std::vector<std::string> workloadNames();

/**
 * Synthetic generator: reads split between a never-written cold region
 * (uniform, sequential-ish runs) and a zipfian hot region; writes go to
 * the hot region only, so the generator's cold-read ratio and read ratio
 * match the spec by construction.
 */
class SyntheticWorkload : public TraceSource
{
  public:
    SyntheticWorkload(const WorkloadSpec &spec, std::uint64_t requests,
                      std::uint64_t seed);

    bool next(IoRecord &out) override;
    std::uint64_t footprintPages() const override;
    std::uint64_t coldRegionStart() const override;
    /**
     * Same boundary test as the base-class default, answered from the
     * cached members: preconditioning consults this once per logical
     * page, so the two extra virtual hops matter.
     */
    bool isCold(std::uint64_t lpn) const override
    {
        return lpn >= hotPages_ && lpn < spec_.footprintPages;
    }

    /** Cold layout is fully described by the two boundaries. */
    bool preconditionDigest(Hasher &h) const override;

    const WorkloadSpec &spec() const { return spec_; }

  private:
    std::uint32_t samplePages(Rng &rng) const;

    WorkloadSpec spec_;
    std::uint64_t remaining_;
    Rng rng_;
    ZipfSampler hotSampler_;
    std::uint64_t hotPages_;
    std::uint64_t coldPages_;
    /** Sequential-stream cursor within the cold region. */
    std::uint64_t seqCursor_ = 0;
    bool seqActive_ = false;
};

/** In-memory trace source (tests and timeline studies). */
class VectorTrace : public TraceSource
{
  public:
    VectorTrace(std::vector<IoRecord> records,
                std::uint64_t footprint_pages,
                std::uint64_t cold_start = 0);

    bool next(IoRecord &out) override;
    std::uint64_t footprintPages() const override;
    std::uint64_t coldRegionStart() const override;

  private:
    std::vector<IoRecord> records_;
    std::size_t cursor_ = 0;
    std::uint64_t footprint_;
    std::uint64_t coldStart_;
};

/**
 * Measure the realized characteristics of a stream (for the Table II
 * bench): read ratio and cold-read ratio given the cold boundary.
 */
struct TraceCharacteristics
{
    std::uint64_t requests = 0;
    std::uint64_t readRequests = 0;
    std::uint64_t coldReads = 0;
    std::uint64_t totalPages = 0;

    double readRatio() const;
    double coldReadRatio() const;
};

TraceCharacteristics characterize(TraceSource &source,
                                  std::uint64_t cold_start);

/**
 * Shifts a sub-stream into its own LBA partition — the building block
 * of multi-tenant replay, where each NVMe queue serves one tenant with
 * a disjoint slice of the logical space.
 */
class OffsetTrace : public TraceSource
{
  public:
    /** @param inner the tenant's stream; not owned
     *  @param offset_pages partition base LPN */
    OffsetTrace(TraceSource &inner, std::uint64_t offset_pages);

    bool next(IoRecord &out) override;
    std::uint64_t footprintPages() const override;
    std::uint64_t coldRegionStart() const override;
    bool isCold(std::uint64_t lpn) const override;

    /** Cacheable iff the shifted inner stream is. */
    bool preconditionDigest(Hasher &h) const override;

    std::uint64_t offset() const { return offset_; }

  private:
    TraceSource &inner_;
    std::uint64_t offset_;
};

} // namespace trace
} // namespace rif

#endif // RIF_TRACE_TRACE_H
