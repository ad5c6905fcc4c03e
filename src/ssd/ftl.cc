#include "ssd/ftl.h"

#include <algorithm>

#include "common/logging.h"
#include "common/metrics.h"

namespace rif {
namespace ssd {

namespace {

const metrics::Counter mSlcReads{
    "nand.cell.slc_reads", "ops",
    "reads served from hybrid SLC-mode blocks"};

} // namespace

Ftl::Ftl(const SsdConfig &config, Rng rng)
    : config_(config),
      rberModel_(config.rber),
      rng_(rng)
{
    const auto &g = config_.geometry;
    // Hybrid SLC-mode conversion: the first slcBlocksPerPlane_ blocks
    // of every plane (rounded down from the configured fraction) are
    // operated one-bit-per-cell.
    slcBlocksPerPlane_ = static_cast<int>(config_.slcBlockFraction *
                                          g.blocksPerPlane);
    const std::size_t nplanes = g.totalPlanes();
    nplanes_ = nplanes;
    pagesPerPlane_ = static_cast<std::uint64_t>(g.blocksPerPlane) *
                     static_cast<std::uint64_t>(g.pagesPerBlock);
    // Every PPN must stay below the override sentinel.
    RIF_ASSERT(g.totalPages() < kNotOverridden,
               "geometry exceeds the 32-bit physical page space");
    planes_.resize(nplanes);
    const std::size_t nblocks =
        nplanes * static_cast<std::size_t>(g.blocksPerPlane);
    // Per-block factors and per-page state are written by precondition()
    // or restore(), never here.
    blocks_.resize(nblocks);
    lpnOf_.reset(new std::uint32_t[nblocks * static_cast<std::size_t>(
                                                 g.pagesPerBlock)]);
    validWordsPerBlock_ =
        (static_cast<std::size_t>(g.pagesPerBlock) + 63) / 64;
    validBits_.reset(new std::uint64_t[nblocks * validWordsPerBlock_]);
    for (std::size_t p = 0; p < nplanes; ++p) {
        auto &plane = planes_[p];
        plane.freeBlocks.reserve(g.blocksPerPlane);
        // Keep the list LIFO-pop-from-back but in ascending order for
        // deterministic fill patterns.
        for (int b = g.blocksPerPlane - 1; b >= 0; --b)
            plane.freeBlocks.push_back(b);
    }
    freeTotal_ = nblocks;
    lowPlanes_ =
        g.blocksPerPlane < config_.gcFreeBlockThreshold ? nplanes : 0;
}

void
Ftl::drawBlockFactors()
{
    for (auto &b : blocks_)
        b.factor = static_cast<float>(rberModel_.sampleBlockFactor(rng_));
}

void
Ftl::setOverride(std::uint64_t lpn, Ppn ppn)
{
    auto &chunk = overrides_[lpn >> kOverrideShift];
    if (!chunk) {
        chunk.reset(new Ppn[kOverrideMask + 1]);
        std::fill_n(chunk.get(), kOverrideMask + 1, kNotOverridden);
    }
    chunk[lpn & kOverrideMask] = ppn;
}

int
Ftl::popFreeBlock(std::size_t plane_idx)
{
    auto &free = planes_[plane_idx].freeBlocks;
    RIF_ASSERT(!free.empty(), "plane out of free blocks: GC fell behind");
    if (static_cast<int>(free.size()) == config_.gcFreeBlockThreshold)
        ++lowPlanes_;
    --freeTotal_;
    const int block = free.back();
    free.pop_back();
    return block;
}

void
Ftl::pushFreeBlock(std::size_t plane_idx, int block)
{
    auto &free = planes_[plane_idx].freeBlocks;
    free.push_back(block);
    if (static_cast<int>(free.size()) == config_.gcFreeBlockThreshold)
        --lowPlanes_;
    ++freeTotal_;
}

std::size_t
Ftl::planeIndex(int channel, int die, int plane) const
{
    const auto &g = config_.geometry;
    return (static_cast<std::size_t>(channel) * g.diesPerChannel + die) *
               g.planesPerDie +
           plane;
}

std::size_t
Ftl::blockIndex(std::size_t plane_idx, int block) const
{
    return plane_idx * config_.geometry.blocksPerPlane + block;
}

Ppn
Ftl::encodePpn(const nand::PhysAddr &a) const
{
    const auto &g = config_.geometry;
    const std::size_t pi = planeIndex(a.channel, a.die, a.plane);
    const std::size_t idx =
        (blockIndex(pi, a.block)) * g.pagesPerBlock + a.page;
    RIF_ASSERT(idx < kInvalidPpn);
    return static_cast<Ppn>(idx);
}

nand::PhysAddr
Ftl::decodePpn(Ppn p) const
{
    const auto &g = config_.geometry;
    nand::PhysAddr a;
    a.page = static_cast<int>(p % g.pagesPerBlock);
    std::uint64_t rest = p / g.pagesPerBlock;
    a.block = static_cast<int>(rest % g.blocksPerPlane);
    rest /= g.blocksPerPlane;
    a.plane = static_cast<int>(rest % g.planesPerDie);
    rest /= g.planesPerDie;
    a.die = static_cast<int>(rest % g.diesPerChannel);
    rest /= g.diesPerChannel;
    a.channel = static_cast<int>(rest);
    RIF_ASSERT(a.channel < g.channels);
    return a;
}

nand::PhysAddr
Ftl::allocateInPlane(std::size_t plane_idx, std::uint64_t lpn)
{
    const auto &g = config_.geometry;
    auto &plane = planes_[plane_idx];

    if (plane.activeBlock < 0) {
        plane.activeBlock = popFreeBlock(plane_idx);
        const std::size_t bi =
            blockIndex(plane_idx, plane.activeBlock);
        auto &meta = blocks_[bi];
        meta.free = false;
        meta.writeCursor = 0;
        meta.validCount = 0;
        meta.readCount = 0;
        meta.layoutPages = 0;
        clearBlockValid(bi);
    }

    const std::size_t bi = blockIndex(plane_idx, plane.activeBlock);
    auto &meta = blocks_[bi];
    const int page = meta.writeCursor++;
    setPageValid(bi, page);
    meta.validCount++;
    blockLpns(bi)[page] = static_cast<std::uint32_t>(lpn);

    nand::PhysAddr a;
    a.plane = static_cast<int>(plane_idx % g.planesPerDie);
    a.die = static_cast<int>((plane_idx / g.planesPerDie) %
                             g.diesPerChannel);
    a.channel = static_cast<int>(plane_idx /
                                 (g.planesPerDie * g.diesPerChannel));
    a.block = plane.activeBlock;
    a.page = page;

    if (meta.writeCursor == g.pagesPerBlock)
        plane.activeBlock = -1; // block full; next write opens another

    return a;
}

void
Ftl::precondition(std::uint64_t footprint_pages, std::uint64_t cold_start)
{
    precondition(footprint_pages, [cold_start](std::uint64_t lpn) {
        return lpn >= cold_start;
    });
}

std::uint64_t
Ftl::installMappings(std::uint64_t footprint_pages)
{
    const auto &g = config_.geometry;
    RIF_ASSERT(overrides_.empty(), "precondition must run once");
    // The footprint comes from workload sizing and `--set` geometry
    // overrides, so an oversized one is a configuration error, not an
    // internal invariant.
    const double capacity =
        static_cast<double>(g.totalPages());
    if (static_cast<double>(footprint_pages) > capacity * 0.90)
        fatal("Ftl: logical footprint of ", footprint_pages,
              " pages exceeds 90% of the drive's ", g.totalPages(),
              "-page capacity; raise geometry.channels, "
              "geometry.diesPerChannel, geometry.planesPerDie, "
              "geometry.blocksPerPlane or geometry.pagesPerBlock");

    const std::uint64_t filled = static_cast<std::uint64_t>(
        static_cast<double>(footprint_pages) * config_.preconditionFill);

    // Channel-striped layout: LPN l lives in plane l % nplanes as that
    // plane's (l / nplanes)-th page. Each plane fills blocks 0, 1, 2, ...
    // in order, so page p of block b holds LPN (b * ppb + p) * nplanes +
    // plane. That is closed-form: a block records how many leading pages
    // carry it (layoutPages) and buildRelocationJob computes their LPNs,
    // so the install writes no reverse-map entry and no mapping entry
    // (ppnOf computes it) and costs O(blocks). The resulting state is
    // the one the per-page allocateInPlane loop would build.
    const std::uint64_t ppb =
        static_cast<std::uint64_t>(g.pagesPerBlock);
    for (std::size_t pi = 0; pi < nplanes_; ++pi) {
        const std::uint64_t count =
            pi < filled ? (filled - pi - 1) / nplanes_ + 1 : 0;
        auto &plane = planes_[pi];
        for (std::uint64_t k = 0; k < count;) {
            const int block = popFreeBlock(pi);
            RIF_ASSERT(static_cast<std::uint64_t>(block) == k / ppb,
                       "install needs the fresh free list's block order");
            const std::size_t bi = blockIndex(pi, block);
            auto &meta = blocks_[bi];
            const std::uint64_t run =
                std::min<std::uint64_t>(ppb, count - k);
            meta.free = false;
            meta.readCount = 0;
            meta.writeCursor = static_cast<std::uint16_t>(run);
            meta.validCount = static_cast<std::uint16_t>(run);
            meta.layoutPages = static_cast<std::uint16_t>(run);
            // First `run` validity bits set, the rest clear.
            std::uint64_t *vw = validWords(bi);
            const std::size_t full =
                static_cast<std::size_t>(run / 64);
            const std::uint64_t rem = run % 64;
            std::size_t w = 0;
            for (; w < full; ++w)
                vw[w] = ~std::uint64_t{0};
            if (rem) {
                vw[w] = (std::uint64_t{1} << rem) - 1;
                ++w;
            }
            for (; w < validWordsPerBlock_; ++w)
                vw[w] = 0;
            plane.activeBlock = run == ppb ? -1 : block;
            k += run;
        }
    }

    footprint_ = footprint_pages;
    filled_ = filled;
    overrides_.resize((footprint_pages + kOverrideMask) >> kOverrideShift);
    return filled;
}

ReadTranslation
Ftl::translateRead(std::uint64_t lpn)
{
    RIF_ASSERT(lpn < footprint_, "read beyond logical footprint");
    ReadTranslation out;
    // A written (overridden) page is young data, age 0; only an
    // installed page never rewritten since carries a drawn age.
    Ppn ppn;
    float age = 0.0f;
    if (const Ppn *o = overrideOf(lpn)) {
        ppn = *o;
    } else if (lpn < filled_) {
        ppn = installedPpn(lpn);
        age = (*ages_)[lpn];
    } else {
        // Reading a never-written page: serve as a fresh hot page
        // (real drives return zeroes without touching the array, but
        // traces rarely do this; map it lazily for robustness).
        ppn = encodePpn(allocateInPlane(lpn % nplanes_, lpn));
        setOverride(lpn, ppn);
    }
    out.addr = decodePpn(ppn);
    out.type = nand::pageTypeOf(out.addr.page, config_.cellType);
    const bool slc_mode = out.addr.block < slcBlocksPerPlane_;
    if (slc_mode) {
        // SLC-mode block: one bit per cell, read like an Lsb page.
        out.type = nand::PageType::Lsb;
        mSlcReads.inc();
    }

    const std::size_t pi =
        planeIndex(out.addr.channel, out.addr.die, out.addr.plane);
    auto &meta = blocks_[blockIndex(pi, out.addr.block)];
    meta.readCount++;
    if (config_.readDisturbThreshold != 0 &&
        meta.readCount % config_.readDisturbThreshold == 0 &&
        !meta.gcPending && !meta.free) {
        disturbCandidates_.push_back(blockIndex(pi, out.addr.block));
    }
    out.rber = rberModel_.rber(config_.peCycles, age,
                               meta.readCount, out.type, meta.factor);
    if (slc_mode)
        out.rber *= config_.slcRberFactor;
    return out;
}

void
Ftl::invalidate(Ppn ppn)
{
    const nand::PhysAddr a = decodePpn(ppn);
    const std::size_t pi = planeIndex(a.channel, a.die, a.plane);
    const std::size_t bi = blockIndex(pi, a.block);
    auto &meta = blocks_[bi];
    RIF_ASSERT(pageValid(bi, a.page), "double invalidate");
    clearPageValid(bi, a.page);
    RIF_ASSERT(meta.validCount > 0);
    meta.validCount--;
}

nand::PhysAddr
Ftl::allocateWrite(std::uint64_t lpn)
{
    RIF_ASSERT(lpn < footprint_, "write beyond logical footprint");
    const Ppn old = ppnOf(lpn);
    if (old != kInvalidPpn)
        invalidate(old);
    // Round-robin across planes, skipping planes that are out of space
    // (their GC is still reclaiming); only a drive-wide exhaustion is an
    // error.
    const std::size_t nplanes = config_.geometry.totalPlanes();
    std::size_t pi = 0;
    bool found = false;
    for (std::size_t probe = 0; probe < nplanes; ++probe) {
        pi = (writeCursorPlane_++) % nplanes;
        const auto &plane = planes_[pi];
        if (plane.activeBlock >= 0 || !plane.freeBlocks.empty()) {
            found = true;
            break;
        }
    }
    RIF_ASSERT(found, "every plane out of free blocks: GC fell behind");
    const nand::PhysAddr a = allocateInPlane(pi, lpn);
    setOverride(lpn, encodePpn(a));
    return a;
}

void
Ftl::buildRelocationJob(std::size_t plane_idx, int victim, GcJob &out)
{
    const auto &g = config_.geometry;
    const std::size_t bi = blockIndex(plane_idx, victim);
    auto &meta = blocks_[bi];
    meta.gcPending = true;
    out.plane = static_cast<int>(plane_idx % g.planesPerDie);
    out.die = static_cast<int>((plane_idx / g.planesPerDie) %
                               g.diesPerChannel);
    out.channel = static_cast<int>(
        plane_idx / (g.planesPerDie * g.diesPerChannel));
    out.block = victim;
    out.lpnsToMove.clear();
    const std::uint32_t *lpns = blockLpns(bi);
    // The install layout's pages carry closed-form LPNs (see
    // installMappings); the reverse map holds the pages written since.
    const std::uint64_t layout_base =
        static_cast<std::uint64_t>(victim) * g.pagesPerBlock;
    const std::uint64_t nplanes = g.totalPlanes();
    for (int p = 0; p < g.pagesPerBlock; ++p) {
        if (pageValid(bi, p)) {
            // Confirm the mapping still points here (a host write may
            // have superseded the page since).
            const std::uint64_t lpn =
                p < meta.layoutPages
                    ? (layout_base + p) * nplanes + plane_idx
                    : lpns[p];
            nand::PhysAddr a;
            a.channel = out.channel;
            a.die = out.die;
            a.plane = out.plane;
            a.block = victim;
            a.page = p;
            if (lpn < footprint_ && ppnOf(lpn) == encodePpn(a))
                out.lpnsToMove.push_back(lpn);
        }
    }
}

bool
Ftl::nextReadDisturbJob(GcJob &out)
{
    while (!disturbCandidates_.empty()) {
        const std::size_t bi = disturbCandidates_.back();
        disturbCandidates_.pop_back();
        auto &meta = blocks_[bi];
        const std::size_t plane_idx =
            bi / static_cast<std::size_t>(config_.geometry.blocksPerPlane);
        const int block = static_cast<int>(
            bi % static_cast<std::size_t>(config_.geometry.blocksPerPlane));
        if (meta.free || meta.gcPending ||
            block == planes_[plane_idx].activeBlock) {
            continue; // stale candidate
        }
        if (meta.writeCursor < config_.geometry.pagesPerBlock)
            continue; // still open for writes; skip
        buildRelocationJob(plane_idx, block, out);
        return true;
    }
    return false;
}

bool
Ftl::nextGcJob(GcJob &out)
{
    if (lowPlanes_ == 0)
        return false;
    const auto &g = config_.geometry;
    for (std::size_t pi = 0; pi < planes_.size(); ++pi) {
        auto &plane = planes_[pi];
        if (static_cast<int>(plane.freeBlocks.size()) >=
            config_.gcFreeBlockThreshold) {
            continue;
        }
        // Greedy victim: fewest valid pages among full, non-pending
        // blocks.
        int victim = -1;
        int best_valid = g.pagesPerBlock + 1;
        for (int b = 0; b < g.blocksPerPlane; ++b) {
            const auto &meta = blocks_[blockIndex(pi, b)];
            if (meta.free || meta.gcPending || b == plane.activeBlock)
                continue;
            if (meta.writeCursor < g.pagesPerBlock)
                continue; // only reclaim fully written blocks
            if (meta.validCount < best_valid) {
                best_valid = meta.validCount;
                victim = b;
            }
        }
        if (victim < 0)
            continue;
        buildRelocationJob(pi, victim, out);
        return true;
    }
    return false;
}

void
Ftl::completeErase(const GcJob &job)
{
    const std::size_t pi = planeIndex(job.channel, job.die, job.plane);
    const std::size_t bi = blockIndex(pi, job.block);
    auto &meta = blocks_[bi];
    RIF_ASSERT(meta.gcPending);
    RIF_ASSERT(meta.validCount == 0,
               "erasing a block that still holds valid pages");
    meta.gcPending = false;
    meta.free = true;
    meta.eraseCount++;
    meta.writeCursor = 0;
    meta.layoutPages = 0;
    pushFreeBlock(pi, job.block);
    ++erases_;
}

bool
Ftl::writePressureCritical() const
{
    // Keep at least one free block per plane in reserve: below that,
    // host writes must wait for garbage collection (write throttling,
    // as real drives do under sustained random-write pressure).
    return freeTotal_ <= planes_.size();
}

int
Ftl::freeBlocksInPlane(int channel, int die, int plane) const
{
    return static_cast<int>(
        planes_[planeIndex(channel, die, plane)].freeBlocks.size());
}

FtlSnapshot
Ftl::snapshot() const
{
    RIF_ASSERT(erases_ == 0 &&
                   std::none_of(overrides_.begin(), overrides_.end(),
                                [](const auto &c) { return c != nullptr; }),
               "snapshot must be taken right after precondition");
    FtlSnapshot s;
    s.footprintPages = footprint_;
    s.blockFactors.reserve(blocks_.size());
    for (const auto &b : blocks_)
        s.blockFactors.push_back(b.factor);
    s.retentionDays = ages_;
    s.rng = rng_;
    return s;
}

void
Ftl::restore(const FtlSnapshot &snap)
{
    // Rebuild the closed-form install state and take the stored block
    // factors, shared ages and generator: byte-for-byte the state
    // precondition() would have produced, in O(blocks).
    RIF_ASSERT(snap.blockFactors.size() == blocks_.size());
    for (std::size_t i = 0; i < blocks_.size(); ++i)
        blocks_[i].factor = snap.blockFactors[i];
    installMappings(snap.footprintPages);
    RIF_ASSERT(snap.retentionDays->size() == filled_);
    ages_ = snap.retentionDays;
    rng_ = snap.rng;
}

std::uint64_t
Ftl::validPages() const
{
    std::uint64_t n = 0;
    for (const auto &b : blocks_)
        n += b.validCount;
    return n;
}

} // namespace ssd
} // namespace rif
