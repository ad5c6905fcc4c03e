#include "ssd/ssd.h"

#include <algorithm>
#include <string_view>

#include "common/hash.h"
#include "common/logging.h"
#include "common/metrics.h"
#include "core/tracing.h"
#include "ssd/snapshot_cache.h"

namespace rif {
namespace ssd {

Ssd::Ssd(const SsdConfig &config)
    : config_(config),
      rng_(config.seed),
      behavior_(makeBehaviorModel(config)),
      ftl_(std::make_unique<Ftl>(config, Rng(config.seed ^ 0xf71))),
      usage_(config.geometry.channels)
{
    config_.validate();
    const auto &g = config_.geometry;
    stats_.channels.resize(g.channels);

    eccs_.reserve(g.channels);
    channels_.reserve(g.channels);
    for (int c = 0; c < g.channels; ++c) {
        eccs_.push_back(std::make_unique<EccEngine>(sim_, config_));
        channels_.push_back(std::make_unique<ChannelModel>(
            sim_, config_, *eccs_[c], stats_.channels[c]));
        eccs_[c]->setChannel(channels_[c].get());
    }
    dies_.reserve(g.totalDies());
    for (int c = 0; c < g.channels; ++c) {
        for (int d = 0; d < g.diesPerChannel; ++d) {
            dies_.push_back(
                std::make_unique<DieModel>(sim_, config_, *channels_[c]));
        }
    }
    auto lookup = [this](const nand::PhysAddr &a) -> DieModel & {
        return dieAt(a);
    };
    for (int c = 0; c < g.channels; ++c) {
        channels_[c]->setDieLookup(lookup);
        eccs_[c]->setDieLookup(lookup);
    }
    hostLink_ = std::make_unique<HostLink>(sim_, config_.hostGBps);
}

Ssd::~Ssd() = default;

DieModel &
Ssd::dieAt(const nand::PhysAddr &addr)
{
    const auto &g = config_.geometry;
    return *dies_[static_cast<std::size_t>(addr.channel) *
                      g.diesPerChannel +
                  addr.die];
}

void
Ssd::prepareOpen(const std::vector<trace::TraceSource *> &sources)
{
    RIF_ASSERT(!sources.empty());
    stats_.queueReadLatencyUs.resize(sources.size());
    std::uint64_t footprint = 0;
    for (const auto *s : sources)
        footprint = std::max(footprint, s->footprintPages());
    const auto precondition = [&] {
        ftl_->precondition(footprint, [&sources](std::uint64_t lpn) {
            for (const auto *s : sources)
                if (s->isCold(lpn))
                    return true;
            return false;
        });
    };
    auto &snapshots = FtlSnapshotCache::instance();
    Hasher hasher;
    if (snapshots.enabled() &&
        preconditionCacheKey(hasher, config_, footprint, sources)) {
        const auto snap =
            snapshots.getOrBuild(hasher.finish(), [&] {
                precondition();
                return ftl_->snapshot();
            });
        // The builder preconditioned this FTL in place; every other
        // caller starts from a fresh FTL and restores the shared,
        // immutable snapshot into it.
        if (ftl_->footprintPages() == 0 && footprint != 0)
            ftl_->restore(*snap);
    } else {
        precondition();
    }
}

SsdStats
Ssd::runMultiQueue(const std::vector<trace::TraceSource *> &sources,
                   ArrivalPolicy &policy)
{
    prepareOpen(sources);
    // The start callback hands each request a hook that reports its
    // retirement back to the driver (the policy's refill point).
    HostDriver host(sim_, sources, policy,
                    [this, &host](const trace::IoRecord &rec, int queue,
                                  Tick issuedAt) {
                        submitIo(rec, queue, issuedAt,
                                 [&host, queue](Tick) {
                                     host.complete(queue);
                                 });
                    });
    host.prime();
    if (outstanding_ == 0 && sim_.nextEventBound() == ~Tick(0))
        warn("trace produced no requests");

    sim_.run();

    finishOpen();
    host.publishMetrics();
    return stats_;
}

const SsdStats &
Ssd::finishOpen()
{
    stats_.makespan = sim_.now();
    for (auto &u : stats_.channels)
        u.finish(sim_.now());
    tracing::complete("ssd.run", 0, stats_.makespan, 0, "requests",
                      static_cast<std::int64_t>(stats_.hostRequests));
    publishMetrics();
    return stats_;
}

void
Ssd::publishMetrics() const
{
    namespace m = metrics;
    m::Collector *c = m::activeCollector();
    if (!c)
        return;

    // Map a catalog name through the drive prefix (see
    // setMetricsPrefix): the "ssd." family is re-rooted under the
    // prefix, every other family is prefixed whole.
    const auto name = [&](std::string_view base) -> std::string {
        if (metricsPrefix_.empty())
            return std::string(base);
        if (base.substr(0, 4) == "ssd.")
            base.remove_prefix(4);
        return metricsPrefix_ + std::string(base);
    };
    const auto counter = [&](const char *base, const char *unit,
                             const char *help, std::uint64_t v) {
        c->add(m::registerMetric(name(base), m::Kind::Counter, unit, help),
               v);
    };
    const auto gauge = [&](const char *base, const char *unit,
                           const char *help, std::uint64_t v) {
        c->gaugeMax(
            m::registerMetric(name(base), m::Kind::Gauge, unit, help), v);
    };
    const auto dist = [&](const std::string &base, const char *help,
                          const PercentileTracker &t) {
        const int id = m::registerMetric(name(base), m::Kind::Distribution,
                                         "us", help);
        for (double x : t.samples())
            c->observe(id, x);
    };

    counter("ssd.makespan_ticks", "ticks", "simulated run length",
            stats_.makespan);
    counter("ssd.host.requests", "ops", "host requests completed",
            stats_.hostRequests);
    counter("ssd.host.read_bytes", "bytes", "bytes read by the host",
            stats_.hostReadBytes);
    counter("ssd.host.write_bytes", "bytes", "bytes written by the host",
            stats_.hostWriteBytes);
    gauge("ssd.host.queue_peak", "reqs", "peak outstanding host requests",
          static_cast<std::uint64_t>(outstandingPeak_));

    counter("ssd.nand.page_reads", "ops", "page read operations",
            stats_.pageReads);
    counter("ssd.nand.page_writes", "ops", "page program operations",
            stats_.pageWrites);
    counter("ssd.nand.block_erases", "ops", "block erases",
            stats_.blockErases);
    counter("ssd.gc.page_moves", "ops", "valid pages relocated by GC",
            stats_.gcPageMoves);
    counter("ssd.gc.disturb_relocations", "ops",
            "read-disturb block relocations",
            stats_.disturbBlockRelocations);

    counter("ssd.read.gather.pages", "ops",
            "read pages dispatched through gathered batches",
            gatherPages_);
    counter("ssd.read.gather.kicks", "ops",
            "die batch-formation pokes scheduled by gathered dispatch",
            gatherKicks_);

    counter("ssd.reads.retried", "ops", "host reads needing any retry",
            stats_.retriedReads);
    counter("ssd.reads.uncor_transfers", "ops",
            "uncorrectable pages transferred off-chip",
            stats_.uncorTransfers);
    counter("ssd.reads.failed_decodes", "ops",
            "ECC decodes hitting the iteration cap", stats_.failedDecodes);

    // ODEAR RP confusion matrix. A prediction is a true positive when
    // the in-die retry avoided an uncorrectable transfer, a false
    // positive when the retry was unnecessary, a false negative when an
    // uncorrectable page slipped through, and a true negative otherwise.
    const std::uint64_t tp = stats_.avoidedTransfers;
    const std::uint64_t fp = stats_.falseInDieRetries;
    const std::uint64_t fn = stats_.missedPredictions;
    const std::uint64_t tn =
        stats_.rpPredictions >= tp + fp + fn
            ? stats_.rpPredictions - tp - fp - fn
            : 0;
    counter("odear.rp.predictions", "ops", "on-die RP predictions run",
            stats_.rpPredictions);
    counter("odear.rp.true_positive", "ops",
            "uncorrectable transfers avoided by early retry", tp);
    counter("odear.rp.false_positive", "ops",
            "unnecessary in-die retries", fp);
    counter("odear.rp.false_negative", "ops",
            "uncorrectable pages the RP missed", fn);
    counter("odear.rp.true_negative", "ops",
            "correctly predicted correctable pages", tn);

    for (std::size_t ch = 0; ch < stats_.channels.size(); ++ch) {
        static constexpr const char *kStateNames[kChannelStates] = {
            "idle_ticks", "cor_ticks", "uncor_ticks", "eccwait_ticks",
            "write_ticks"};
        const ChannelUsage &u = stats_.channels[ch];
        for (int s = 0; s < kChannelStates; ++s) {
            counter(("ssd.chan" + std::to_string(ch) + "." + kStateNames[s])
                        .c_str(),
                    "ticks", "channel state residency",
                    u.time(static_cast<ChannelState>(s)));
        }
    }

    dist("ssd.read_latency_us", "host read latency", stats_.readLatencyUs);
    dist("ssd.write_latency_us", "host write latency",
         stats_.writeLatencyUs);
    if (stats_.queueReadLatencyUs.size() > 1)
        for (std::size_t q = 0; q < stats_.queueReadLatencyUs.size(); ++q)
            dist("ssd.queue" + std::to_string(q) + ".read_latency_us",
                 "per-tenant read latency", stats_.queueReadLatencyUs[q]);

    counter("sim.events", "ops", "events executed by the kernel",
            sim_.eventsExecuted());
    gauge("sim.queue_peak", "events", "peak pending-event count",
          sim_.peakQueueSize());
    gauge("ssd.pool.page_ops", "objects", "PageOp pool high-water mark",
          pageOpPool_.allocated());
    gauge("ssd.pool.host_requests", "objects",
          "HostRequest pool high-water mark", hostReqPool_.allocated());
}

void
Ssd::submitIo(const trace::IoRecord &rec, int queue, Tick issuedAt,
              InlineFunction<void(Tick)> onDone)
{
    if (++outstanding_ > outstandingPeak_)
        outstandingPeak_ = outstanding_;
    ++stats_.hostRequests;
    HostRequest *req = hostReqPool_.acquire();
    req->isRead = rec.isRead;
    req->pagesRemaining = static_cast<int>(rec.pages);
    req->bytes = static_cast<std::uint64_t>(rec.pages) *
                 config_.geometry.pageBytes;
    req->issued = issuedAt;
    req->queue = queue;
    req->onDone = std::move(onDone);

    if (rec.isRead) {
        dispatchReadPages(req, rec.lpn, rec.pages);
    } else {
        // Host data streams in over the host link before the pages are
        // dispatched to the flash backend.
        hostLink_->transfer(req->bytes, [this, req, rec] {
            dispatchWritePages(req, rec.lpn, rec.pages);
        });
    }
}

PageOp *
Ssd::acquireOp(PageOp::Type type)
{
    PageOp *op = pageOpPool_.acquire();
    op->type = type;
    op->phase = 0;
    op->dieTicks = 0;
    return op;
}

PageOp *
Ssd::newReadOp(std::uint64_t lpn, InlineFunction<void(PageOp *)> done)
{
    const ReadTranslation tr = ftl_->translateRead(lpn);
    PageOp *op = acquireOp(PageOp::Type::Read);
    op->addr = tr.addr;
    // Plan in place: a recycled op's phase vector keeps its capacity,
    // so steady-state planning allocates nothing. A fresh op starts
    // with room for a few retry rounds, so a read that retries later
    // in the replay rarely grows it.
    if (op->script.phases.capacity() == 0)
        op->script.phases.reserve(8);
    planReadInto(config_, behavior_, tr.rber, rng_, op->script);
    op->onComplete = std::move(done);
    applyPlanStats(op->script.stats);
    if (op->script.stats.retried)
        tracing::instant("nand.read_retry", sim_.now(),
                         1u + static_cast<std::uint32_t>(op->addr.channel),
                         "lpn", static_cast<std::int64_t>(lpn));
    ++stats_.pageReads;
    return op;
}

void
Ssd::applyPlanStats(const ReadPlanStats &ps)
{
    if (ps.retried)
        ++stats_.retriedReads;
    stats_.uncorTransfers += ps.uncorTransfers;
    stats_.failedDecodes += ps.failedDecodes;
    stats_.rpPredictions += ps.rpPredictions;
    stats_.avoidedTransfers += ps.avoidedTransfers;
    stats_.falseInDieRetries += ps.falseInDieRetries;
    stats_.missedPredictions += ps.missedPredictions;
}

template <typename MakeOp>
void
Ssd::dispatchGathered(std::size_t count, MakeOp makeOp)
{
    // Gather: enqueue every op quietly, then poke each touched die
    // exactly once. The pokes run after all same-tick enqueues either
    // way, so batch formation is identical — with one zero-delay event
    // per die instead of one per page.
    auto &kicks = gatherDies_;
    kicks.clear();
    for (std::size_t i = 0; i < count; ++i) {
        PageOp *op = makeOp(i);
        DieModel &die = dieAt(op->addr);
        die.enqueueQuiet(op);
        if (std::find(kicks.begin(), kicks.end(), &die) == kicks.end())
            kicks.push_back(&die);
    }
    for (DieModel *die : kicks)
        die->kick();
    gatherPages_ += count;
    gatherKicks_ += kicks.size();
}

void
Ssd::dispatchReadPages(HostRequest *req, std::uint64_t lpn,
                       std::uint32_t pages)
{
    dispatchGathered(pages, [&](std::size_t i) {
        return newReadOp(lpn + i, [this, req](PageOp *done_op) {
            freeOp(done_op);
            if (--req->pagesRemaining == 0) {
                // All pages decoded; stream the data to the host.
                hostLink_->transfer(req->bytes,
                                    [this, req] { finishRequest(req); });
            }
        });
    });
    maybeStartGc(); // reads can trip the read-disturb threshold
}

void
Ssd::dispatchWritePages(HostRequest *req, std::uint64_t lpn,
                        std::uint32_t pages)
{
    if (ftl_->writePressureCritical()) {
        // Throttle: park the write until GC frees blocks (drained on
        // every erase completion).
        stalledWrites_.push(
            [this, req, lpn, pages] { dispatchWritePages(req, lpn, pages); });
        maybeStartGc();
        return;
    }
    for (std::uint32_t i = 0; i < pages; ++i) {
        PageOp *op = acquireOp(PageOp::Type::Write);
        op->addr = ftl_->allocateWrite(lpn + i);
        op->dieTicks = config_.timing.tProg;
        op->onComplete = [this, req](PageOp *done_op) {
            freeOp(done_op);
            ++stats_.pageWrites;
            if (--req->pagesRemaining == 0)
                finishRequest(req);
        };
        // Write data flows through the channel into the die first.
        channels_[op->addr.channel]->enqueue(op);
    }
    maybeStartGc();
}

void
Ssd::finishRequest(HostRequest *req)
{
    const double latency_us = ticksToUs(sim_.now() - req->issued);
    if (req->isRead) {
        stats_.hostReadBytes += req->bytes;
        stats_.readLatencyUs.add(latency_us);
        stats_.queueReadLatencyUs[static_cast<std::size_t>(req->queue)]
            .add(latency_us);
    } else {
        stats_.hostWriteBytes += req->bytes;
        stats_.writeLatencyUs.add(latency_us);
    }
    tracing::complete(req->isRead ? "host.read" : "host.write", req->issued,
                      sim_.now() - req->issued, 0, "bytes",
                      static_cast<std::int64_t>(req->bytes));
    InlineFunction<void(Tick)> done = std::move(req->onDone);
    req->onDone = nullptr; // recycled requests must not retain hooks
    hostReqPool_.release(req);
    --outstanding_;
    noGainGcStreak_ = 0;
    if (done)
        done(sim_.now());
}

void
Ssd::drainStalledWrites()
{
    while (!stalledWrites_.empty() && !ftl_->writePressureCritical()) {
        auto retry = std::move(stalledWrites_.front());
        stalledWrites_.pop();
        retry();
    }
}

void
Ssd::maybeStartGc()
{
    // Bound concurrent relocation so internal traffic cannot starve
    // the host; free-space GC takes precedence over read-disturb
    // relocations.
    while (gcJobsInFlight_ < config_.geometry.channels) {
        GcRun *run = gcJobPool_.acquire();
        if (ftl_->nextGcJob(run->job)) {
            ++gcJobsInFlight_;
            runGcJob(run);
        } else if (ftl_->nextReadDisturbJob(run->job)) {
            ++gcJobsInFlight_;
            ++stats_.disturbBlockRelocations;
            runGcJob(run);
        } else {
            gcJobPool_.release(run);
            break;
        }
    }
}

void
Ssd::checkGcProgress(const GcJob &job)
{
    // Relocating a fully valid victim fills as much space as erasing it
    // frees. Once more such jobs than the drive has blocks complete
    // without a host request retiring, no plane is climbing back to its
    // threshold and simulated time would grow forever.
    const auto &g = config_.geometry;
    if (job.lpnsToMove.size() != static_cast<std::size_t>(g.pagesPerBlock))
        return;
    if (++noGainGcStreak_ <= g.totalPlanes() * g.blocksPerPlane)
        return;
    fatal("GC livelock: ", noGainGcStreak_,
          " GC jobs in a row relocated fully valid victims with no host "
          "request retiring; plane (channel ", job.channel, ", die ",
          job.die, ", plane ", job.plane, ") stays below "
          "gcFreeBlockThreshold=", config_.gcFreeBlockThreshold,
          " with blocksPerPlane=", g.blocksPerPlane, " at a footprint of ",
          ftl_->footprintPages(), " pages; raise blocksPerPlane or "
          "shrink the footprint");
}

void
Ssd::runGcJob(GcRun *run)
{
    // Relocate every valid page (read via the normal retry-policy path,
    // then program elsewhere), then erase the victim.
    const GcJob &job = run->job;
    tracing::instant("ssd.gc.job", sim_.now(),
                     1u + static_cast<std::uint32_t>(job.channel), "moves",
                     static_cast<std::int64_t>(job.lpnsToMove.size()));
    run->movesLeft = static_cast<int>(job.lpnsToMove.size());

    auto finish_moves = [this, run] {
        if (--run->movesLeft > 0)
            return;
        PageOp *erase_op = acquireOp(PageOp::Type::Erase);
        erase_op->addr.channel = run->job.channel;
        erase_op->addr.die = run->job.die;
        erase_op->addr.plane = run->job.plane;
        erase_op->addr.block = run->job.block;
        erase_op->dieTicks = config_.timing.tErase;
        erase_op->onComplete = [this, run](PageOp *done_op) {
            freeOp(done_op);
            checkGcProgress(run->job);
            ftl_->completeErase(run->job);
            ++stats_.blockErases;
            gcJobPool_.release(run);
            --gcJobsInFlight_;
            maybeStartGc();
            drainStalledWrites();
        };
        dieAt(erase_op->addr).enqueue(erase_op);
    };

    if (job.lpnsToMove.empty()) {
        run->movesLeft = 1;
        finish_moves();
        return;
    }

    dispatchGathered(job.lpnsToMove.size(), [&](std::size_t i) {
        const std::uint64_t lpn = job.lpnsToMove[i];
        return newReadOp(lpn, [this, lpn, finish_moves](PageOp *done_op) {
            freeOp(done_op);
            ++stats_.gcPageMoves;
            PageOp *write_op = acquireOp(PageOp::Type::Write);
            write_op->addr = ftl_->allocateWrite(lpn);
            write_op->dieTicks = config_.timing.tProg;
            write_op->onComplete = [this, finish_moves](PageOp *w) {
                freeOp(w);
                ++stats_.pageWrites;
                finish_moves();
            };
            channels_[write_op->addr.channel]->enqueue(write_op);
        });
    });
}

} // namespace ssd
} // namespace rif
