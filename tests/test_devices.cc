/**
 * @file
 * Unit tests of the hardware resource models: multi-plane die batching
 * (including the same-tick coalescing regression), channel transfer
 * serialization and usage accounting, ECC buffer back-pressure and the
 * host link.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <deque>
#include <memory>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "ssd/devices.h"

namespace rif {
namespace ssd {
namespace {

/** Harness wiring one channel + ECC + one die. */
struct Rig
{
    explicit Rig(int ecc_buffer_pages = 2)
    {
        cfg.geometry.channels = 1;
        cfg.geometry.diesPerChannel = 1;
        cfg.eccBufferPages = ecc_buffer_pages;
        ecc = std::make_unique<EccEngine>(sim, cfg);
        channel =
            std::make_unique<ChannelModel>(sim, cfg, *ecc, usage);
        ecc->setChannel(channel.get());
        die = std::make_unique<DieModel>(sim, cfg, *channel, *ecc);
        auto lookup = [this](const nand::PhysAddr &) -> DieModel & {
            return *die;
        };
        channel->setDieLookup(lookup);
        ecc->setDieLookup(lookup);
    }

    /** A simple clean-read op: sense tR, COR transfer, decode. */
    PageOp *
    makeRead(int plane, Tick decode_ticks, std::vector<Tick> *done_at)
    {
        auto *op = new PageOp;
        op->type = PageOp::Type::Read;
        op->addr.plane = plane;
        op->script.phases = {
            ReadPhase::die(cfg.timing.tR),
            ReadPhase::xfer(ChannelState::CorXfer),
            ReadPhase::decode(decode_ticks, false),
        };
        op->onComplete = [this, done_at](PageOp *o) {
            done_at->push_back(sim.now());
            delete o;
        };
        return op;
    }

    SsdConfig cfg;
    Simulator sim;
    ChannelUsage usage;
    std::unique_ptr<EccEngine> ecc;
    std::unique_ptr<ChannelModel> channel;
    std::unique_ptr<DieModel> die;
};

TEST(DieModel, SameTickOpsFormOneMultiPlaneBatch)
{
    // Regression: four reads to distinct planes enqueued back-to-back
    // at tick 0 must sense together (one tR), not serially.
    Rig rig;
    std::vector<Tick> done;
    for (int plane = 0; plane < 4; ++plane)
        rig.die->enqueue(rig.makeRead(plane, usToTicks(1.0), &done));
    rig.sim.run();
    ASSERT_EQ(done.size(), 4u);
    // Sense 40 us together, then 4 x 13 us transfers + 1 us decode:
    // last completion at ~40 + 52 + 1 = 93 us, far below the serial
    // 4 x 40 = 160 us of sensing alone.
    EXPECT_LE(done.back(), usToTicks(95.0));
    EXPECT_GE(done.front(), usToTicks(53.0));
}

TEST(DieModel, SamePlaneOpsSerialize)
{
    Rig rig;
    std::vector<Tick> done;
    rig.die->enqueue(rig.makeRead(0, usToTicks(1.0), &done));
    rig.die->enqueue(rig.makeRead(0, usToTicks(1.0), &done));
    rig.sim.run();
    ASSERT_EQ(done.size(), 2u);
    // Two senses of the same plane cannot overlap: >= 80 us of die time
    // before the second transfer even starts.
    EXPECT_GE(done.back(), usToTicks(80.0 + 13.0));
}

TEST(DieModel, BatchReleasesEachOpAtItsOwnDuration)
{
    // One op has extra on-die work (RiF in-die retry); the clean op
    // must release to the channel at tR, not at the batch maximum.
    Rig rig;
    std::vector<Tick> done;
    PageOp *slow = rig.makeRead(0, usToTicks(1.0), &done);
    slow->script.phases.insert(
        slow->script.phases.begin() + 1,
        ReadPhase::die(usToTicks(80.0))); // in-die retry
    PageOp *fast = rig.makeRead(1, usToTicks(1.0), &done);
    rig.die->enqueue(slow);
    rig.die->enqueue(fast);
    rig.sim.run();
    ASSERT_EQ(done.size(), 2u);
    // Fast op: 40 (sense) + 13 (xfer) + 1 (decode) = 54 us.
    EXPECT_LE(done.front(), usToTicks(55.0));
    // Slow op: 120 on die + 13 + 1.
    EXPECT_GE(done.back(), usToTicks(133.0));
}

TEST(DieModel, WritesOccupyProgramTime)
{
    Rig rig;
    std::vector<Tick> done;
    auto *op = new PageOp;
    op->type = PageOp::Type::Write;
    op->addr.plane = 0;
    op->dieTicks = rig.cfg.timing.tProg;
    op->onComplete = [&](PageOp *o) {
        done.push_back(rig.sim.now());
        delete o;
    };
    rig.die->enqueue(op);
    rig.sim.run();
    ASSERT_EQ(done.size(), 1u);
    EXPECT_EQ(done[0], rig.cfg.timing.tProg);
}

/**
 * The batching rule as the die first implemented it, kept as the
 * oracle for DieModel's per-plane lanes: one queue in arrival order; a
 * batch takes the first op of the batch type on each distinct plane,
 * scanning the queue front to back, and an erase goes alone. The plane
 * set is a vector rather than a 32-bit mask, so any plane count works.
 */
class FifoScanDie
{
  public:
    FifoScanDie(Simulator &sim, const SsdConfig &config,
                ChannelModel &channel, EccEngine &)
        : sim_(sim), config_(config), channel_(channel)
    {
    }

    void enqueueQuiet(PageOp *op) { queue_.push_back(op); }
    void kick() { sim_.schedule(0, [this] { tryStart(); }); }

  private:
    void
    tryStart()
    {
        if (busy_ || queue_.empty())
            return;
        const PageOp::Type batch_type = queue_.front()->type;
        std::vector<PageOp *> batch;
        if (batch_type == PageOp::Type::Erase) {
            batch.push_back(queue_.front());
            queue_.pop_front();
        } else {
            std::vector<bool> taken(
                static_cast<std::size_t>(config_.geometry.planesPerDie));
            for (auto it = queue_.begin(); it != queue_.end();) {
                PageOp *op = *it;
                const auto plane = static_cast<std::size_t>(op->addr.plane);
                if (op->type == batch_type && !taken[plane]) {
                    taken[plane] = true;
                    batch.push_back(op);
                    it = queue_.erase(it);
                } else {
                    ++it;
                }
            }
        }
        busy_ = true;
        Tick busy_for = 0;
        for (PageOp *op : batch) {
            const Tick t = op->pendingDieTicks();
            busy_for = std::max(busy_for, t);
            sim_.schedule(t, [this, op] { release(op); });
        }
        sim_.schedule(busy_for, [this] {
            busy_ = false;
            tryStart();
        });
    }

    void
    release(PageOp *op)
    {
        if (op->type == PageOp::Type::Read) {
            while (op->currentPhase().kind == ReadPhase::Kind::DieVisit)
                op->phase++;
            channel_.enqueue(op);
        } else {
            auto done = std::move(op->onComplete);
            done(op);
        }
    }

    Simulator &sim_;
    const SsdConfig &config_;
    ChannelModel &channel_;
    std::deque<PageOp *> queue_;
    bool busy_ = false;
};

/** One op of a randomized die script. */
struct DieScriptOp
{
    Tick at;
    PageOp::Type type;
    int plane;
    std::vector<Tick> dieVisits; ///< reads: sense runs; else one entry
    bool kick;                   ///< false: enqueueQuiet without a poke
};

std::vector<DieScriptOp>
randomDieScript(std::uint64_t seed, int planes)
{
    Rng rng(seed);
    std::vector<DieScriptOp> script;
    Tick at = 0;
    for (int i = 0; i < 800; ++i) {
        // Bursts of same-tick arrivals separated by gaps shorter than
        // a program, so backlogs build up on busy planes.
        if (rng.below(3) == 0)
            at += usToTicks(1.0) * rng.below(120);
        DieScriptOp op;
        op.at = at;
        const std::uint64_t kind = rng.below(20);
        op.type = kind < 10   ? PageOp::Type::Read
                  : kind < 18 ? PageOp::Type::Write
                              : PageOp::Type::Erase;
        // Skew toward plane 0, the shape of a GC relocation burst.
        op.plane = rng.below(3) == 0
                       ? 0
                       : static_cast<int>(
                             rng.below(static_cast<std::uint64_t>(planes)));
        if (op.type == PageOp::Type::Read) {
            const std::uint64_t visits = 1 + rng.below(2);
            for (std::uint64_t v = 0; v < visits; ++v)
                op.dieVisits.push_back(usToTicks(1.0) *
                                       (1 + rng.below(100)));
        } else if (op.type == PageOp::Type::Write) {
            op.dieVisits.push_back(usToTicks(1.0) * (100 + rng.below(600)));
        } else {
            op.dieVisits.push_back(usToTicks(1.0) *
                                   (1000 + rng.below(3000)));
        }
        op.kick = rng.below(4) != 0;
        script.push_back(std::move(op));
    }
    script.back().kick = true;
    return script;
}

/**
 * Replay a die script on one die (with a zero-time channel behind it,
 * so a read completes at the tick the die releases it) and log each
 * op's (index, completion tick) in completion order.
 */
template <typename Die>
std::vector<std::pair<int, Tick>>
replayDieScript(const SsdConfig &cfg, const std::vector<DieScriptOp> &script)
{
    Simulator sim;
    ChannelUsage usage;
    EccEngine ecc(sim, cfg);
    ChannelModel channel(sim, cfg, ecc, usage);
    ecc.setChannel(&channel);
    Die die(sim, cfg, channel, ecc);
    std::vector<std::unique_ptr<PageOp>> ops;
    std::vector<std::pair<int, Tick>> log;
    for (std::size_t i = 0; i < script.size(); ++i) {
        const DieScriptOp &s = script[i];
        auto op = std::make_unique<PageOp>();
        op->type = s.type;
        op->addr.plane = s.plane;
        if (s.type == PageOp::Type::Read) {
            for (Tick t : s.dieVisits)
                op->script.phases.push_back(ReadPhase::die(t));
            op->script.phases.push_back(
                ReadPhase::xfer(ChannelState::CorXfer));
        } else {
            op->dieTicks = s.dieVisits.front();
        }
        const int id = static_cast<int>(i);
        op->onComplete = [&log, &sim, id](PageOp *) {
            log.emplace_back(id, sim.now());
        };
        PageOp *raw = op.get();
        ops.push_back(std::move(op));
        const bool kick = s.kick;
        sim.scheduleAt(s.at, [&die, raw, kick] {
            die.enqueueQuiet(raw);
            if (kick)
                die.kick();
        });
    }
    sim.run();
    return log;
}

TEST(DieModel, BatchingMatchesFifoScanOracle)
{
    for (int planes : {1, 2, 4, 40}) {
        for (std::uint64_t seed : {5u, 77u, 4242u}) {
            SsdConfig cfg;
            cfg.geometry.channels = 1;
            cfg.geometry.diesPerChannel = 1;
            cfg.geometry.planesPerDie = planes;
            cfg.timing.tDmaPage = 0;
            const auto script = randomDieScript(seed, planes);
            const auto lanes = replayDieScript<DieModel>(cfg, script);
            const auto oracle = replayDieScript<FifoScanDie>(cfg, script);
            ASSERT_EQ(lanes.size(), script.size());
            EXPECT_EQ(lanes, oracle)
                << "planes=" << planes << " seed=" << seed;
        }
    }
}

TEST(Channel, TransfersSerializeAtPageGranularity)
{
    Rig rig;
    std::vector<Tick> done;
    for (int plane = 0; plane < 2; ++plane)
        rig.die->enqueue(rig.makeRead(plane, usToTicks(1.0), &done));
    rig.sim.run();
    rig.usage.finish(rig.sim.now());
    // Two transfers of 13 us each.
    EXPECT_EQ(rig.usage.time(ChannelState::CorXfer), usToTicks(26.0));
    EXPECT_EQ(rig.usage.time(ChannelState::UncorXfer), 0u);
}

TEST(Channel, EccBackPressureProducesEccWait)
{
    // Long decodes (20 us) behind 13 us transfers with a 2-page buffer
    // must stall the channel (the paper's ECCWAIT).
    Rig rig(2);
    std::vector<Tick> done;
    for (int plane = 0; plane < 4; ++plane)
        rig.die->enqueue(rig.makeRead(plane, usToTicks(20.0), &done));
    rig.sim.run();
    rig.usage.finish(rig.sim.now());
    EXPECT_GT(rig.usage.time(ChannelState::EccWait), 0u);
    // Completions pace at the 20 us decode cadence, not 13 us.
    ASSERT_EQ(done.size(), 4u);
    EXPECT_GE(done[3] - done[0], usToTicks(3 * 20.0 - 1.0));
}

TEST(Channel, DeeperEccBufferRemovesEccWaitForShortBursts)
{
    Rig rig(8);
    std::vector<Tick> done;
    for (int plane = 0; plane < 4; ++plane)
        rig.die->enqueue(rig.makeRead(plane, usToTicks(20.0), &done));
    rig.sim.run();
    rig.usage.finish(rig.sim.now());
    EXPECT_EQ(rig.usage.time(ChannelState::EccWait), 0u);
}

TEST(Ecc, FailedDecodeSendsOpBackToDie)
{
    Rig rig;
    std::vector<Tick> done;
    auto *op = new PageOp;
    op->type = PageOp::Type::Read;
    op->addr.plane = 0;
    op->script.phases = {
        ReadPhase::die(rig.cfg.timing.tR),
        ReadPhase::xfer(ChannelState::UncorXfer),
        ReadPhase::decode(rig.cfg.timing.tEccMax, true),
        ReadPhase::die(rig.cfg.timing.tR),
        ReadPhase::xfer(ChannelState::CorXfer),
        ReadPhase::decode(rig.cfg.timing.tEccMin, false),
    };
    op->onComplete = [&](PageOp *o) {
        done.push_back(rig.sim.now());
        delete o;
    };
    rig.die->enqueue(op);
    rig.sim.run();
    rig.usage.finish(rig.sim.now());
    ASSERT_EQ(done.size(), 1u);
    // 40 + 13 + 20 + 40 + 13 + 1 = 127 us end to end.
    EXPECT_EQ(done[0], usToTicks(127.0));
    EXPECT_EQ(rig.usage.time(ChannelState::UncorXfer), usToTicks(13.0));
    EXPECT_EQ(rig.usage.time(ChannelState::CorXfer), usToTicks(13.0));
}

TEST(HostLink, SerializesAtConfiguredBandwidth)
{
    Simulator sim;
    HostLink link(sim, 8.0); // 8 GB/s
    std::vector<Tick> done;
    // Two 64-KiB transfers: 8.192 us each, strictly serialized.
    for (int i = 0; i < 2; ++i)
        link.transfer(64 * kKiB, [&] { done.push_back(sim.now()); });
    sim.run();
    ASSERT_EQ(done.size(), 2u);
    EXPECT_NEAR(static_cast<double>(done[0]), 8192.0, 2.0);
    EXPECT_NEAR(static_cast<double>(done[1]), 16384.0, 4.0);
}

TEST(PageOp, PendingDieTicksSumsLeadingRun)
{
    PageOp op;
    op.type = PageOp::Type::Read;
    op.script.phases = {
        ReadPhase::die(10), ReadPhase::die(20),
        ReadPhase::xfer(ChannelState::CorXfer), ReadPhase::decode(5, false),
    };
    EXPECT_EQ(op.pendingDieTicks(), 30u);
    op.phase = 2;
    EXPECT_EQ(op.pendingDieTicks(), 0u);
}

} // namespace
} // namespace ssd
} // namespace rif
