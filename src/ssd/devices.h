/**
 * @file
 * Hardware resource models of the simulated SSD: flash dies (multi-plane
 * batched senses and programs), flash channels (page DMA with ECC-buffer
 * back-pressure and usage accounting), the per-channel ECC engine and the
 * host interface link. Page operations carry their pre-planned read
 * scripts (ssd/policy.h) and walk phase by phase through these resources.
 */

#ifndef RIF_SSD_DEVICES_H
#define RIF_SSD_DEVICES_H

#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/inline_function.h"
#include "nand/geometry.h"
#include "ssd/config.h"
#include "ssd/policy.h"
#include "ssd/sim.h"
#include "ssd/stats.h"

namespace rif {
namespace ssd {

class ChannelModel;
class EccEngine;
class DieModel;

/**
 * Die-routing callback: channels and the ECC engine forward an op to
 * the die owning its physical address. An inline callable (not
 * std::function) so per-phase forwarding never allocates.
 */
using DieLookup = InlineFunction<DieModel &(const nand::PhysAddr &), 16>;

/** One page-granularity operation in flight. */
struct PageOp
{
    enum class Type
    {
        Read,
        Write,
        Erase,
    };

    Type type = Type::Read;
    nand::PhysAddr addr;

    /** For reads: the planned script and the execution cursor. */
    ReadScript script;
    std::size_t phase = 0;

    /** For writes/erases: die occupancy. */
    Tick dieTicks = 0;

    /** Invoked exactly once when the operation retires. */
    InlineFunction<void(PageOp *)> onComplete;

    /** Current phase accessor (reads only). */
    const ReadPhase &currentPhase() const { return script.phases[phase]; }
    bool scriptDone() const { return phase >= script.phases.size(); }

    /**
     * Die occupancy of the current run of DieVisit phases, starting at
     * the cursor.
     */
    Tick pendingDieTicks() const;
};

/**
 * A FIFO queue over one reusable buffer. Popped slots are reclaimed in
 * bulk once they are half the buffer (or all of it), so a queue that
 * never drains costs O(1) amortized per element, and steady traffic
 * allocates only when the queue grows past its previous peak — unlike
 * std::deque, which frees and reallocates a node every few elements of
 * churn.
 */
template <typename T>
class Fifo
{
  public:
    bool empty() const { return head_ == buf_.size(); }
    T &front() { return buf_[head_]; }

    void
    push(T v)
    {
        if (buf_.capacity() == 0)
            buf_.reserve(kInitialCapacity);
        buf_.push_back(std::move(v));
    }

    void
    pop()
    {
        if (++head_ == buf_.size()) {
            buf_.clear();
            head_ = 0;
        } else if (head_ >= 32 && 2 * head_ >= buf_.size()) {
            buf_.erase(buf_.begin(),
                       buf_.begin() + static_cast<std::ptrdiff_t>(head_));
            head_ = 0;
        }
    }

  private:
    /** First allocation's size: most queues never outgrow it. */
    static constexpr std::size_t kInitialCapacity = 16;

    std::vector<T> buf_;
    std::size_t head_ = 0;
};

/**
 * A flash die: executes one batch at a time. Reads and writes to
 * distinct planes are merged into multi-plane batches; each operation
 * releases at its own die occupancy while the die frees at the batch
 * maximum (planes operate in parallel; §III-B3).
 *
 * Queued ops wait in one FIFO lane per (type, plane), tagged with their
 * enqueue order, so forming a batch costs O(planes) however long the
 * backlog grows (GC relocation bursts queue thousands of ops on a die).
 */
class DieModel
{
  public:
    DieModel(Simulator &sim, const SsdConfig &config, ChannelModel &channel);

    /** Queue an operation whose next phase runs on this die. */
    void enqueue(PageOp *op);

    /**
     * Queue without scheduling the batch-formation poke. A dispatcher
     * placing several ops on one die at the same tick calls this per
     * op and kick() once per touched die — identical batching with one
     * zero-delay event instead of one per op.
     */
    void enqueueQuiet(PageOp *op);

    /** Schedule the deferred batch-formation poke (see enqueue). */
    void kick();

  private:
    /** A queued op and its enqueue order. */
    struct Entry
    {
        std::uint64_t seq;
        PageOp *op;
    };

    /** The queued ops of one (type, plane) pair in FIFO order. */
    using Lane = Fifo<Entry>;

    /** PageOp::Type has three values: Read, Write, Erase. */
    static constexpr std::size_t kOpTypes = 3;

    Lane &
    lane(PageOp::Type type, int plane)
    {
        return lanes_[static_cast<std::size_t>(type) *
                          static_cast<std::size_t>(planes_) +
                      static_cast<std::size_t>(plane)];
    }

    void tryStart();
    void releaseOp(PageOp *op);

    Simulator &sim_;
    ChannelModel &channel_;
    const int planes_;
    /** Lane of (type, plane) at index type * planes_ + plane. */
    std::vector<Lane> lanes_;
    std::uint64_t nextSeq_ = 0;
    std::size_t queued_ = 0;
    /** Scratch for batch formation, reused across tryStart calls. */
    std::vector<Entry> batch_;
    bool busy_ = false;
};

/**
 * A flash channel: one page transfer at a time; transfers toward the
 * ECC engine stall when the engine's input buffer is full (the ECCWAIT
 * state of Fig. 18).
 */
class ChannelModel
{
  public:
    ChannelModel(Simulator &sim, const SsdConfig &config, EccEngine &ecc,
                 ChannelUsage &usage);

    /** Queue an operation whose next phase is a channel transfer. */
    void enqueue(PageOp *op);

    /** Re-evaluate after the ECC engine frees buffer space. */
    void poke();

    /** Writes continue to a die after their inbound transfer. */
    void setDieLookup(DieLookup f);

  private:
    void tryStart();

    Simulator &sim_;
    const SsdConfig &config_;
    EccEngine &ecc_;
    ChannelUsage &usage_;
    DieLookup dieLookup_;
    Fifo<PageOp *> queue_;
    bool busy_ = false;
};

/**
 * Channel-level ECC engine: FIFO decode of delivered pages with a small
 * input buffer. The channel reserves a buffer slot when it starts a
 * transfer toward the engine and the slot frees when the page's decode
 * completes.
 */
class EccEngine
{
  public:
    EccEngine(Simulator &sim, const SsdConfig &config);

    /** Wire the owning channel (poked when buffer space frees). */
    void setChannel(ChannelModel *channel) { channel_ = channel; }

    /** True when a transfer toward the engine may begin. */
    bool canAccept() const { return held_ < config_.eccBufferPages; }

    /** Reserve a buffer slot (called at transfer start). */
    void reserve();

    /** A transferred page arrives for decoding. */
    void accept(PageOp *op);

    /** Reads continue to a die after a failed decode. */
    void setDieLookup(DieLookup f);

    int held() const { return held_; }

  private:
    void tryDecode();

    Simulator &sim_;
    const SsdConfig &config_;
    ChannelModel *channel_ = nullptr;
    DieLookup dieLookup_;
    Fifo<PageOp *> queue_;
    int held_ = 0;
    bool busy_ = false;
};

/** Host interface link: serializes host data at the PCIe bandwidth. */
class HostLink
{
  public:
    HostLink(Simulator &sim, double gbps);

    /** Transfer `bytes` and invoke `done` on completion. */
    void transfer(std::uint64_t bytes, InlineFunction<void()> done);

  private:
    void tryStart();

    struct Job
    {
        Tick duration;
        InlineFunction<void()> done;
    };

    Simulator &sim_;
    double bytesPerTick_;
    Fifo<Job> queue_;
    /** Completion of the transfer on the wire (valid while busy_). */
    InlineFunction<void()> inFlight_;
    bool busy_ = false;
};

} // namespace ssd
} // namespace rif

#endif // RIF_SSD_DEVICES_H
