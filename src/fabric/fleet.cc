#include "fabric/fleet.h"

#include <algorithm>
#include <string>

#include "common/hash.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "core/tracing.h"

namespace rif {
namespace fabric {

namespace {

/**
 * Drive i's slice of the host workload, seen through the placement's
 * address map: the precondition-only TraceSource handed to each Ssd.
 * Never produces requests (the fleet injects them over the modeled
 * interconnect); it exists so preconditioning sizes the drive's FTL to
 * its placement footprint, ages cold pages by the *global* cold
 * predicate, and keys the FTL snapshot cache on (workload, placement,
 * drive).
 */
class DriveView final : public trace::TraceSource
{
  public:
    DriveView(const trace::TraceSource &inner, const Placement &placement,
              int drive)
        : inner_(inner), placement_(placement), drive_(drive),
          innerFootprint_(inner.footprintPages()),
          footprint_(placement.driveFootprint(innerFootprint_))
    {
    }

    bool next(trace::IoRecord &) override { return false; }
    std::uint64_t footprintPages() const override { return footprint_; }

    bool
    isCold(std::uint64_t lpn) const override
    {
        std::uint32_t replica = 0;
        const std::uint64_t gpn = placement_.globalOf(drive_, lpn, replica);
        // Chunk-row padding past the global footprint is never
        // addressed; age it hot like any other written-then-idle page.
        return gpn < innerFootprint_ && inner_.isCold(gpn);
    }

    bool
    preconditionDigest(Hasher &h) const override
    {
        if (!inner_.preconditionDigest(h))
            return false;
        h.add(std::uint64_t(0x666c745f76696577ull)); // fleet-view schema
        h.add(placement_.drives());
        h.add(placement_.replicas());
        h.add(placement_.stripePages());
        h.add(drive_);
        h.add(footprint_);
        return true;
    }

  private:
    const trace::TraceSource &inner_;
    const Placement &placement_;
    int drive_;
    /** The host workload's footprint, read once: the precondition's
     *  cold predicate asks for it per installed page. */
    std::uint64_t innerFootprint_;
    std::uint64_t footprint_;
};

} // namespace

Fleet::Fleet(const ssd::SsdConfig &base, const FleetConfig &config)
    : baseCfg_(base), cfg_(config), placement_(config),
      net_(config.drives, config.linkGBps, config.linkTicks())
{
    baseCfg_.validate();
    cfg_.validate();

    const int n = cfg_.drives;
    driveCfgs_.reserve(static_cast<std::size_t>(n));
    drives_.reserve(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d) {
        auto cfg = std::make_unique<ssd::SsdConfig>(baseCfg_);
        cfg->seed = driveSeed(baseCfg_.seed, d);
        if (d < cfg_.agedDrives)
            cfg->peCycles = cfg_.agedPeCycles;
        drives_.push_back(std::make_unique<ssd::Ssd>(*cfg));
        drives_.back()->setMetricsPrefix("ssd" + std::to_string(d) + ".");
        driveCfgs_.push_back(std::move(cfg));
    }
    driveLoad_.assign(static_cast<std::size_t>(n), 0);
}

Fleet::~Fleet() = default;

const ssd::SsdConfig &
Fleet::driveConfig(int drive) const
{
    return *driveCfgs_[static_cast<std::size_t>(drive)];
}

FleetStats
Fleet::run(trace::TraceSource &source)
{
    ssd::ClosedLoopArrival closed(cfg_.qd);
    return run(source, closed);
}

FleetStats
Fleet::run(trace::TraceSource &source, ssd::ArrivalPolicy &policy)
{
    const int n = cfg_.drives;
    const std::uint32_t baseTrack = tracing::currentTrack();

    std::vector<DriveView> views;
    views.reserve(static_cast<std::size_t>(n));
    for (int d = 0; d < n; ++d)
        views.emplace_back(source, placement_, d);

    for (int d = 0; d < n; ++d)
        tracing::setTrackLabel(
            baseTrack + 1 + static_cast<std::uint32_t>(d),
            "ssd" + std::to_string(d));

    // Precondition every drive's FTL up front. Independent work (the
    // snapshot cache is single-flight and each drive's key differs by
    // its forked seed), so it runs on the shared worker pool.
    parallelForWorker(
        static_cast<std::size_t>(n), [&](std::size_t d, int) {
            tracing::TrackScope track(
                baseTrack + 1 + static_cast<std::uint32_t>(d));
            const std::vector<trace::TraceSource *> one{&views[d]};
            drives_[d]->prepareOpen(one);
        });

    // Start injection at host time zero: the closed loop fills its
    // window immediately, the open loop schedules the first arrival.
    ssd::HostDriver host(hostSim_, {&source}, policy,
                         [this](const trace::IoRecord &rec, int,
                                Tick issuedAt) {
                             startCommand(rec, issuedAt);
                         });
    host_ = &host;
    host.prime();

    // Conservative lookahead rounds. Any message crossing the
    // interconnect from time t arrives no earlier than t + L, so with
    // b = the earliest pending tick anywhere, every event in
    // [b, b + L - 1] is already determined: drives advance to the
    // horizon (their completions cross the egress link as they
    // retire), then the host catches up, scheduling next-round
    // submissions that provably land past the horizon.
    //
    // A round runs, in ascending drive index on this thread, only the
    // drives whose own bound lies inside the window. Skipping an idle
    // drive is exact: runUntil past an empty window pops nothing,
    // moves no bound window, and only advances the drive clock, which
    // no event or bound query can observe (see Simulator::runUntil).
    const Tick lookahead = cfg_.linkTicks();
    boundScratch_.assign(static_cast<std::size_t>(n), 0);
    while (true) {
        Tick bound = hostSim_.nextEventBound();
        for (int d = 0; d < n; ++d) {
            boundScratch_[static_cast<std::size_t>(d)] =
                drives_[static_cast<std::size_t>(d)]->nextEventBound();
            bound = std::min(bound, boundScratch_[static_cast<std::size_t>(d)]);
        }
        if (bound == ~Tick(0))
            break; // fully drained
        const Tick horizon = bound + lookahead - 1;
        ++stats_.syncRounds;

        int active = 0;
        for (int d = 0; d < n; ++d) {
            const Tick db = boundScratch_[static_cast<std::size_t>(d)];
            if (db > horizon) {
                stats_.barrierWaitTicks += lookahead;
                continue;
            }
            ++active;
            stats_.barrierWaitTicks += db - bound;
            tracing::TrackScope track(
                baseTrack + 1 + static_cast<std::uint32_t>(d));
            drives_[static_cast<std::size_t>(d)]->runUntil(horizon);
        }
        if (active <= 1)
            ++stats_.roundsCoalesced;

        hostSim_.runUntil(horizon);
    }

    if (outstanding_ != 0)
        panic("fleet drained with ", outstanding_, " commands in flight");

    stats_.makespan = lastDone_;
    stats_.hostEvents = hostSim_.eventsExecuted();
    for (int d = 0; d < n; ++d) {
        tracing::TrackScope track(
            baseTrack + 1 + static_cast<std::uint32_t>(d));
        stats_.drives.push_back(drives_[static_cast<std::size_t>(d)]
                                    ->finishOpen());
        stats_.driveEvents += drives_[static_cast<std::size_t>(d)]
                                  ->simulator()
                                  .eventsExecuted();
    }
    publishFleetMetrics();
    host.publishMetrics();
    host_ = nullptr;
    return stats_;
}

void
Fleet::startCommand(const trace::IoRecord &rec, Tick issuedAt)
{
    Command *cmd = cmdPool_.acquire();
    cmd->isRead = rec.isRead;
    cmd->issued = issuedAt;
    cmd->subsLeft = 0;

    splitScratch_.clear();
    const std::uint32_t replicas = placement_.replicas();
    if (!rec.isRead) {
        // Writes persist every replica.
        for (std::uint32_t r = 0; r < replicas; ++r)
            placement_.split(rec.lpn, rec.pages, r, splitScratch_);
    } else if (replicas == 1) {
        placement_.split(rec.lpn, rec.pages, 0, splitScratch_);
    } else {
        // Replicated reads steer each chunk to its least-loaded
        // replica (ties to the lowest drive index, so the choice is
        // deterministic).
        std::uint64_t gpn = rec.lpn;
        std::uint32_t left = rec.pages;
        while (left > 0) {
            const std::uint32_t inChunk =
                placement_.stripePages() -
                static_cast<std::uint32_t>(gpn % placement_.stripePages());
            const std::uint32_t take = std::min(left, inChunk);
            std::uint32_t best = 0;
            int bestLoad = driveLoad_[static_cast<std::size_t>(
                placement_.locate(gpn, 0).drive)];
            for (std::uint32_t r = 1; r < replicas; ++r) {
                const int load = driveLoad_[static_cast<std::size_t>(
                    placement_.locate(gpn, r).drive)];
                if (load < bestLoad) {
                    best = r;
                    bestLoad = load;
                }
            }
            if (best != 0)
                ++stats_.replicaReadsBalanced;
            placement_.split(gpn, take, best, splitScratch_);
            gpn += take;
            left -= take;
        }
    }

    cmd->subsLeft = static_cast<int>(splitScratch_.size());
    ++stats_.commands;
    if (rec.isRead)
        ++stats_.readCommands;
    stats_.subIos += splitScratch_.size();
    if (++outstanding_ > outstandingPeak_)
        outstandingPeak_ = outstanding_;
    for (const SubIo &sub : splitScratch_)
        submitSub(cmd, sub);
}

void
Fleet::submitSub(Command *cmd, const SubIo &sub)
{
    ++driveLoad_[static_cast<std::size_t>(sub.drive)];
    const std::uint64_t dataBytes =
        static_cast<std::uint64_t>(sub.pages) * baseCfg_.geometry.pageBytes;
    const Tick arrival = net_.ingress(sub.drive)
                             .deliver(hostSim_.now(),
                                      kMsgBytes +
                                          (cmd->isRead ? 0 : dataBytes));

    ssd::Ssd *drv = drives_[static_cast<std::size_t>(sub.drive)].get();
    const int d = sub.drive;
    const std::uint64_t lpn = sub.lpn;
    const std::uint32_t pages = sub.pages;
    // Runs inside drive d's kernel at the command's arrival; the inner
    // hook runs there too at retirement and sends the completion back
    // across the link. Drives run one at a time in index order and the
    // host lane only after them, so host events keep a deterministic
    // (drive-major, then retirement) schedule order.
    drv->simulator().scheduleAt(arrival, [this, drv, cmd, lpn, pages, d] {
        const trace::IoRecord rec{cmd->isRead, lpn, pages, 0};
        drv->submitIo(rec, 0, drv->simulator().now(),
                      [this, cmd, pages, d](Tick at) {
                          deliverCompletion(cmd, d, at, pages);
                      });
    });
}

void
Fleet::deliverCompletion(Command *cmd, int drive, Tick at,
                         std::uint32_t pages)
{
    // Completion message: CQE plus, for reads, the data returning to
    // the host.
    const std::uint64_t dataBytes =
        static_cast<std::uint64_t>(pages) * baseCfg_.geometry.pageBytes;
    const Tick arrival = net_.egress(drive).deliver(
        at, kMsgBytes + (cmd->isRead ? dataBytes : 0));
    hostSim_.scheduleAt(arrival, [this, cmd, drive] {
        --driveLoad_[static_cast<std::size_t>(drive)];
        if (--cmd->subsLeft == 0) {
            const Tick now = hostSim_.now();
            const double us = ticksToUs(now - cmd->issued);
            (cmd->isRead ? stats_.readLatencyUs : stats_.writeLatencyUs)
                .add(us);
            lastDone_ = std::max(lastDone_, now);
            cmdPool_.release(cmd);
            --outstanding_;
            host_->complete(0);
        }
    });
}

void
Fleet::publishFleetMetrics() const
{
    namespace m = metrics;
    m::Collector *c = m::activeCollector();
    if (!c)
        return;
    const auto counter = [&](const char *name, const char *unit,
                             const char *help, std::uint64_t v) {
        c->add(m::registerMetric(name, m::Kind::Counter, unit, help), v);
    };
    const auto gauge = [&](const char *name, const char *unit,
                           const char *help, std::uint64_t v) {
        c->gaugeMax(m::registerMetric(name, m::Kind::Gauge, unit, help), v);
    };
    const auto dist = [&](const char *name, const char *help,
                          const PercentileTracker &t) {
        const int id =
            m::registerMetric(name, m::Kind::Distribution, "us", help);
        for (double x : t.samples())
            c->observe(id, x);
    };

    gauge("fabric.drives", "drives", "drives in the fleet",
          static_cast<std::uint64_t>(cfg_.drives));
    counter("fabric.commands", "ops", "host commands completed",
            stats_.commands);
    counter("fabric.read_commands", "ops", "host read commands completed",
            stats_.readCommands);
    counter("fabric.sub_ios", "ops", "per-drive sub-IOs issued",
            stats_.subIos);
    counter("fabric.replica_balanced_reads", "ops",
            "replicated-read chunks steered off the primary replica",
            stats_.replicaReadsBalanced);
    counter("fabric.sync_rounds", "rounds",
            "conservative lookahead synchronization rounds",
            stats_.syncRounds);
    counter("fabric.round.coalesced", "rounds",
            "rounds in which at most one drive had work inside the "
            "window",
            stats_.roundsCoalesced);
    counter("fabric.round.barrier_wait_ticks", "ticks",
            "simulated ticks drive lanes sat idle inside round windows",
            stats_.barrierWaitTicks);
    counter("fabric.link.busy_ticks", "ticks",
            "interconnect serialization time summed over all links",
            net_.busyTicks());
    counter("fabric.link.messages", "msgs",
            "messages crossing the interconnect, both directions",
            net_.messages());
    gauge("fabric.host.queue_peak", "cmds",
          "peak outstanding host commands",
          static_cast<std::uint64_t>(outstandingPeak_));
    counter("fabric.makespan_ticks", "ticks",
            "host-observed fleet run length", stats_.makespan);
    dist("fabric.read_latency_us",
         "host-observed read command latency", stats_.readLatencyUs);
    dist("fabric.write_latency_us",
         "host-observed write command latency", stats_.writeLatencyUs);
}

} // namespace fabric
} // namespace rif
