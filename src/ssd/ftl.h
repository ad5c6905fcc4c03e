/**
 * @file
 * Page-mapping flash translation layer: logical-to-physical mapping with
 * channel-first striping for plane parallelism, per-block metadata
 * (validity, read counts, process-variation factor), retention-age
 * tracking per logical page, preconditioning, and greedy garbage
 * collection.
 */

#ifndef RIF_SSD_FTL_H
#define RIF_SSD_FTL_H

#include <cstdint>
#include <functional>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/rng.h"
#include "nand/rber_model.h"
#include "ssd/config.h"

namespace rif {
namespace ssd {

/** Compact physical page number. */
using Ppn = std::uint32_t;

constexpr Ppn kInvalidPpn = ~Ppn(0);

/** Result of a read translation. */
struct ReadTranslation
{
    nand::PhysAddr addr;
    nand::PageType type = nand::PageType::Lsb;
    double rber = 0.0; ///< nominal RBER at default VREF
};

/** A garbage-collection work order: move these LPNs, then erase. */
struct GcJob
{
    int channel = 0;
    int die = 0;
    int plane = 0;
    int block = 0;
    std::vector<std::uint64_t> lpnsToMove;
};

/**
 * Post-precondition FTL state, captured for reuse across simulations of
 * the same (geometry, workload, seed) point. The mapping and block
 * metadata are a pure function of the configuration (the install layout
 * is closed-form, see installMappings), so only the randomized parts
 * need storing: the drawn block factors, retention ages and the
 * generator state after the draws. The ages are immutable and shared:
 * the builder and every restored drive read the one vector, so a
 * restore is O(blocks) — the install plus a copy of the block factors —
 * with no per-page work at all.
 */
struct FtlSnapshot
{
    std::uint64_t footprintPages = 0;
    /** Block factors, one per block in blockIndex order. */
    std::vector<float> blockFactors;
    /** Ages of the installed LPNs (the first `filled` of the footprint). */
    std::shared_ptr<const std::vector<float>> retentionDays;
    Rng rng{0}; ///< generator state after the factor and retention draws
};

/** Page-mapping FTL. */
class Ftl
{
  public:
    Ftl(const SsdConfig &config, Rng rng);

    /**
     * Install the initial mapping for a logical footprint. LPNs at or
     * beyond `cold_start` are cold (retention age uniform in the
     * refresh window); the rest are hot (young data).
     */
    void precondition(std::uint64_t footprint_pages,
                      std::uint64_t cold_start);

    /**
     * Predicate form for composite (multi-tenant) layouts: `is_cold`
     * decides per LPN whether the page carries refresh-window-aged
     * data. Templated so the (per-page) predicate call inlines; the
     * mapping installation itself is closed-form (see installMappings).
     */
    template <typename ColdPredicate,
              typename = std::enable_if_t<std::is_invocable_r_v<
                  bool, ColdPredicate, std::uint64_t>>>
    void
    precondition(std::uint64_t footprint_pages,
                 const ColdPredicate &is_cold)
    {
        // Block factors draw first, then the retention ages in LPN
        // order: the draw sequence of every earlier layout, so seeds
        // reproduce runs bit-for-bit.
        drawBlockFactors();
        const std::uint64_t filled = installMappings(footprint_pages);
        auto ages = std::make_shared<std::vector<float>>();
        ages->reserve(filled);
        for (std::uint64_t lpn = 0; lpn < filled; ++lpn) {
            ages->push_back(static_cast<float>(
                is_cold(lpn)
                    ? rng_.uniform(config_.coldAgeMinDays,
                                   config_.refreshDays)
                    : rng_.uniform(0.0, config_.hotAgeDays)));
        }
        ages_ = std::move(ages);
    }

    std::uint64_t footprintPages() const { return footprint_; }

    /**
     * Capture the preconditioned state. Must be called immediately
     * after precondition(), before any read/write/GC mutates the FTL.
     */
    FtlSnapshot snapshot() const;

    /**
     * Bring a freshly constructed FTL (same config and ctor seed as the
     * snapshot's source) into the exact state precondition() produced,
     * without redrawing the block factors or the retention ages. The
     * snapshot is read-only and can be shared across concurrent
     * restores; the restored FTL shares its ages and keeps them alive.
     */
    void restore(const FtlSnapshot &snap);

    /** Translate a read and account a block read (read disturb). */
    ReadTranslation translateRead(std::uint64_t lpn);

    /**
     * Allocate a fresh physical page for a write of `lpn`, invalidating
     * the previous mapping. Resets the page's retention age.
     */
    nand::PhysAddr allocateWrite(std::uint64_t lpn);

    /**
     * If some plane fell below the free-block watermark, emit a GC job
     * for it (at most one job per call). The caller relocates the LPNs
     * (normal write path) and then calls completeErase().
     */
    bool nextGcJob(GcJob &out);

    /**
     * Read-disturb management: if any block's read count exceeded the
     * configured threshold, emit a relocation job for it (§I's
     * read-disturb management as SSD-internal traffic). Same job
     * protocol as GC.
     */
    bool nextReadDisturbJob(GcJob &out);

    /** Finish a GC job: erase the victim and return it to the free list. */
    void completeErase(const GcJob &job);

    /** Physical blocks per plane still free (for tests). */
    int freeBlocksInPlane(int channel, int die, int plane) const;

    /** Free blocks summed over all planes (a running total). */
    std::uint64_t totalFreeBlocks() const { return freeTotal_; }

    /**
     * True when host writes should be throttled so in-flight GC can
     * catch up (free space nearly exhausted drive-wide).
     */
    bool writePressureCritical() const;

    /** Total valid mapped pages (invariant checking). */
    std::uint64_t validPages() const;

    std::uint64_t erasesPerformed() const { return erases_; }

  private:
    /**
     * Per-block metadata. The per-page reverse map and validity bits
     * live in flat drive-wide arrays (lpnOf_ / validBits_) instead of
     * per-block vectors: constructing the previous layout performed two
     * heap allocations per block — tens of thousands for the simulated
     * geometry — and dominated SSD setup time.
     */
    struct BlockMeta
    {
        std::uint16_t writeCursor = 0;
        std::uint16_t validCount = 0;
        std::uint32_t readCount = 0;
        std::uint32_t eraseCount = 0;
        float factor = 1.0f;
        bool free = true;
        bool gcPending = false;
        /**
         * Leading pages that carry the install layout, whose LPNs are
         * closed-form (see installMappings); the reverse map holds only
         * the pages written after them.
         */
        std::uint16_t layoutPages = 0;
    };

    struct PlaneState
    {
        int activeBlock = -1;
        std::vector<int> freeBlocks; ///< local block indices
    };

    std::size_t planeIndex(int channel, int die, int plane) const;
    std::size_t blockIndex(std::size_t plane_idx, int block) const;
    /** Draw every block's process-variation factor (precondition). */
    void drawBlockFactors();
    /**
     * Bulk preconditioning pass: install the channel-striped initial
     * layout. The layout is closed-form, so the pass opens whole blocks
     * (recording their layoutPages) and writes no per-page state: the
     * mapping of an installed LPN is computed (see ppnOf), and the
     * state is exactly the one the per-page allocateInPlane loop would
     * build. Returns the number of pages filled.
     */
    std::uint64_t installMappings(std::uint64_t footprint_pages);

    /** The override entry of `lpn`, or null if no write placed it. */
    const Ppn *
    overrideOf(std::uint64_t lpn) const
    {
        const Ppn *chunk = overrides_[lpn >> kOverrideShift].get();
        if (!chunk || chunk[lpn & kOverrideMask] == kNotOverridden)
            return nullptr;
        return chunk + (lpn & kOverrideMask);
    }
    /**
     * Current PPN of `lpn`: its override if a write placed it, else
     * the closed-form install address (kInvalidPpn beyond `filled_`).
     */
    Ppn
    ppnOf(std::uint64_t lpn) const
    {
        const Ppn *o = overrideOf(lpn);
        return o ? *o : installedPpn(lpn);
    }
    /** Closed-form install address: LPN k·nplanes + pi is page k of
     *  plane pi, PPN pi·pagesPerPlane + k. */
    Ppn
    installedPpn(std::uint64_t lpn) const
    {
        if (lpn >= filled_)
            return kInvalidPpn;
        return static_cast<Ppn>((lpn % nplanes_) * pagesPerPlane_ +
                                lpn / nplanes_);
    }
    /** Map `lpn` to `ppn` after a write; its retention age reads 0. */
    void setOverride(std::uint64_t lpn, Ppn ppn);
    Ppn encodePpn(const nand::PhysAddr &a) const;
    nand::PhysAddr decodePpn(Ppn p) const;
    /**
     * Take a block off / put one back on a plane's free list. The only
     * writers of the free lists, so they keep freeTotal_ and
     * lowPlanes_ current.
     */
    int popFreeBlock(std::size_t plane_idx);
    void pushFreeBlock(std::size_t plane_idx, int block);
    /** Allocate the next page in a plane (opens a new block if needed). */
    nand::PhysAddr allocateInPlane(std::size_t plane_idx,
                                   std::uint64_t lpn);
    void invalidate(Ppn ppn);
    /** Shared GC/read-disturb job assembly for one victim block. */
    void buildRelocationJob(std::size_t plane_idx, int victim,
                            GcJob &out);

    /** Reverse map (page -> LPN) of one block inside the flat array. */
    std::uint32_t *
    blockLpns(std::size_t block_idx)
    {
        return lpnOf_.get() +
               block_idx * static_cast<std::size_t>(
                               config_.geometry.pagesPerBlock);
    }
    const std::uint32_t *
    blockLpns(std::size_t block_idx) const
    {
        return lpnOf_.get() +
               block_idx * static_cast<std::size_t>(
                               config_.geometry.pagesPerBlock);
    }

    /** Validity bitset words of one block inside the flat array. */
    std::uint64_t *
    validWords(std::size_t block_idx)
    {
        return validBits_.get() + block_idx * validWordsPerBlock_;
    }
    const std::uint64_t *
    validWords(std::size_t block_idx) const
    {
        return validBits_.get() + block_idx * validWordsPerBlock_;
    }
    bool
    pageValid(std::size_t block_idx, int page) const
    {
        return (validWords(block_idx)[page >> 6] >>
                (page & 63)) &
               1;
    }
    void
    setPageValid(std::size_t block_idx, int page)
    {
        validWords(block_idx)[page >> 6] |= std::uint64_t{1}
                                            << (page & 63);
    }
    void
    clearPageValid(std::size_t block_idx, int page)
    {
        validWords(block_idx)[page >> 6] &=
            ~(std::uint64_t{1} << (page & 63));
    }
    void
    clearBlockValid(std::size_t block_idx)
    {
        std::uint64_t *w = validWords(block_idx);
        for (std::size_t i = 0; i < validWordsPerBlock_; ++i)
            w[i] = 0;
    }

    /**
     * Override chunks: 2^kOverrideShift LPNs each, allocated (filled
     * with kNotOverridden) by the first write into the chunk. The
     * sentinel is no real PPN (the constructor checks the geometry) and
     * differs from kInvalidPpn.
     */
    static constexpr unsigned kOverrideShift = 12;
    static constexpr std::uint64_t kOverrideMask =
        (std::uint64_t{1} << kOverrideShift) - 1;
    static constexpr Ppn kNotOverridden = kInvalidPpn - 1;

    SsdConfig config_;
    nand::RberModel rberModel_;
    Rng rng_;
    /** Leading blocks of each plane operated in SLC mode (0 = none). */
    int slcBlocksPerPlane_ = 0;
    std::uint64_t nplanes_ = 0;
    std::uint64_t pagesPerPlane_ = 0;

    std::uint64_t footprint_ = 0;
    /** LPNs below this carry the closed-form install mapping. */
    std::uint64_t filled_ = 0;
    std::vector<std::unique_ptr<Ppn[]>> overrides_;
    /**
     * Retention ages of the installed LPNs, immutable and shared with
     * the snapshot (and every drive restored from it). An overridden
     * LPN was written since, so its age reads 0 instead.
     */
    std::shared_ptr<const std::vector<float>> ages_;
    std::vector<BlockMeta> blocks_;
    /**
     * Flat per-page reverse map, blocks * pagesPerBlock entries, written
     * only by allocateInPlane. Deliberately left uninitialized: an entry
     * is only read for a valid page at or beyond its block's
     * layoutPages, so the install never faults these pages in.
     */
    std::unique_ptr<std::uint32_t[]> lpnOf_;
    /**
     * Flat per-page validity bitset, validWordsPerBlock_ per block.
     * Uninitialized like lpnOf_: a block's words are written when the
     * install or allocateInPlane opens it, and read only while it is in
     * use.
     */
    std::unique_ptr<std::uint64_t[]> validBits_;
    std::size_t validWordsPerBlock_ = 0;
    std::vector<PlaneState> planes_;
    /** Free blocks over all planes. */
    std::uint64_t freeTotal_ = 0;
    /** Planes with fewer than gcFreeBlockThreshold free blocks. */
    std::size_t lowPlanes_ = 0;
    std::uint64_t writeCursorPlane_ = 0; ///< round-robin allocator
    std::uint64_t erases_ = 0;
    /** Blocks whose read count crossed the disturb threshold. */
    std::vector<std::size_t> disturbCandidates_;
};

} // namespace ssd
} // namespace rif

#endif // RIF_SSD_FTL_H
