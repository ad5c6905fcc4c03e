#include "trace/trace.h"

#include <algorithm>

#include "common/hash.h"
#include "common/logging.h"

namespace rif {
namespace trace {

bool
TraceSource::preconditionDigest(Hasher &) const
{
    return false;
}

std::vector<WorkloadSpec>
paperWorkloads()
{
    // Read ratio and cold-read ratio from Table II; footprints and
    // request-size mixes are representative of cloud block storage
    // (AliCloud) and virtual-desktop (Systor) traffic.
    std::vector<WorkloadSpec> w;
    auto add = [&](const char *name, double rr, double cr,
                   std::uint64_t footprint, double seq) {
        WorkloadSpec s;
        s.name = name;
        s.readRatio = rr;
        s.coldReadRatio = cr;
        s.footprintPages = footprint;
        s.seqProbability = seq;
        w.push_back(s);
    };
    const std::uint64_t mid = 1u << 19; // 8 GiB
    const std::uint64_t big = 1u << 20; // 16 GiB
    add("Ali2", 0.27, 0.50, mid, 0.30);
    add("Ali46", 0.34, 0.75, mid, 0.35);
    add("Ali81", 0.43, 0.74, mid, 0.35);
    add("Ali121", 0.92, 0.70, big, 0.45);
    add("Ali124", 0.96, 0.79, big, 0.50);
    add("Ali295", 0.42, 0.73, mid, 0.35);
    add("Sys0", 0.70, 0.82, big, 0.40);
    add("Sys1", 0.72, 0.83, big, 0.40);
    return w;
}

const WorkloadSpec *
findWorkload(const std::string &name)
{
    static const std::vector<WorkloadSpec> specs = paperWorkloads();
    for (const auto &w : specs)
        if (w.name == name)
            return &w;
    return nullptr;
}

std::vector<std::string>
workloadNames()
{
    std::vector<std::string> names;
    for (const auto &w : paperWorkloads())
        names.push_back(w.name);
    return names;
}

WorkloadSpec
workloadByName(const std::string &name)
{
    if (const WorkloadSpec *w = findWorkload(name))
        return *w;
    std::string valid;
    for (const auto &n : workloadNames()) {
        if (!valid.empty())
            valid += ", ";
        valid += n;
    }
    fatal("unknown workload '", name, "' (valid: ", valid, ")");
}

SyntheticWorkload::SyntheticWorkload(const WorkloadSpec &spec,
                                     std::uint64_t requests,
                                     std::uint64_t seed)
    : spec_(spec),
      remaining_(requests),
      rng_(seed),
      hotSampler_(std::max<std::uint64_t>(
                      1, static_cast<std::uint64_t>(
                             static_cast<double>(spec.footprintPages) *
                             (1.0 - spec.coldFraction))),
                  spec.zipfTheta),
      hotPages_(hotSampler_.size()),
      coldPages_(spec.footprintPages - hotPages_)
{
    RIF_ASSERT(spec_.footprintPages > 16);
    RIF_ASSERT(spec_.coldFraction > 0.0 && spec_.coldFraction < 1.0);
    RIF_ASSERT(coldPages_ > spec_.maxPages);
}

std::uint32_t
SyntheticWorkload::samplePages(Rng &rng) const
{
    // Geometric-flavoured size mix capped at maxPages; cloud block
    // traces skew small with a long sequential tail.
    const double u = rng.uniform();
    std::uint32_t pages;
    if (u < 0.40)
        pages = 1;
    else if (u < 0.60)
        pages = 2;
    else if (u < 0.80)
        pages = 4;
    else if (u < 0.92)
        pages = 8;
    else
        pages = 16;
    return std::min(pages, spec_.maxPages);
}

bool
SyntheticWorkload::next(IoRecord &out)
{
    if (remaining_ == 0)
        return false;
    --remaining_;

    out.pages = samplePages(rng_);
    out.isRead = rng_.chance(spec_.readRatio);

    if (out.isRead && rng_.chance(spec_.coldReadRatio)) {
        // Cold read: sequential run continuation or a fresh uniform
        // position inside the never-written region.
        if (seqActive_ && rng_.chance(spec_.seqProbability) &&
            seqCursor_ + out.pages < coldPages_) {
            out.lpn = hotPages_ + seqCursor_;
            seqCursor_ += out.pages;
        } else {
            const std::uint64_t start =
                rng_.below(coldPages_ - out.pages);
            out.lpn = hotPages_ + start;
            seqCursor_ = start + out.pages;
            seqActive_ = true;
        }
    } else {
        // Hot read or write: zipfian page in the hot region (clamped so
        // the whole request stays inside it).
        std::uint64_t p = hotSampler_.sample(rng_);
        p = std::min(p, hotPages_ - out.pages);
        out.lpn = p;
    }
    return true;
}

std::uint64_t
SyntheticWorkload::footprintPages() const
{
    return spec_.footprintPages;
}

std::uint64_t
SyntheticWorkload::coldRegionStart() const
{
    return hotPages_;
}

bool
SyntheticWorkload::preconditionDigest(Hasher &h) const
{
    h.add("synthetic");
    h.add(spec_.footprintPages);
    h.add(hotPages_);
    return true;
}

VectorTrace::VectorTrace(std::vector<IoRecord> records,
                         std::uint64_t footprint_pages,
                         std::uint64_t cold_start)
    : records_(std::move(records)),
      footprint_(footprint_pages),
      coldStart_(cold_start)
{
}

bool
VectorTrace::next(IoRecord &out)
{
    if (cursor_ >= records_.size())
        return false;
    out = records_[cursor_++];
    return true;
}

std::uint64_t
VectorTrace::footprintPages() const
{
    return footprint_;
}

std::uint64_t
VectorTrace::coldRegionStart() const
{
    return coldStart_;
}

double
TraceCharacteristics::readRatio() const
{
    return requests ? static_cast<double>(readRequests) / requests : 0.0;
}

double
TraceCharacteristics::coldReadRatio() const
{
    return readRequests ? static_cast<double>(coldReads) / readRequests
                        : 0.0;
}

OffsetTrace::OffsetTrace(TraceSource &inner, std::uint64_t offset_pages)
    : inner_(inner), offset_(offset_pages)
{
}

bool
OffsetTrace::next(IoRecord &out)
{
    if (!inner_.next(out))
        return false;
    out.lpn += offset_;
    return true;
}

std::uint64_t
OffsetTrace::footprintPages() const
{
    return offset_ + inner_.footprintPages();
}

std::uint64_t
OffsetTrace::coldRegionStart() const
{
    return offset_ + inner_.coldRegionStart();
}

bool
OffsetTrace::isCold(std::uint64_t lpn) const
{
    // Only answer for pages inside this partition, so disjoint tenant
    // predicates can be ORed together.
    return lpn >= offset_ && lpn < offset_ + inner_.footprintPages() &&
           inner_.isCold(lpn - offset_);
}

bool
OffsetTrace::preconditionDigest(Hasher &h) const
{
    h.add("offset");
    h.add(offset_);
    return inner_.preconditionDigest(h);
}

TraceCharacteristics
characterize(TraceSource &source, std::uint64_t cold_start)
{
    TraceCharacteristics c;
    IoRecord rec;
    while (source.next(rec)) {
        ++c.requests;
        c.totalPages += rec.pages;
        if (rec.isRead) {
            ++c.readRequests;
            if (rec.lpn >= cold_start)
                ++c.coldReads;
        }
    }
    return c;
}

} // namespace trace
} // namespace rif
