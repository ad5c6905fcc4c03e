/**
 * @file
 * Benchmark driver. Runs one named workload through the simulator's
 * public APIs (ssd::Ssd, fabric::Fleet, ldpc::measureCapability,
 * odear::RpModule::calibrateThreshold, odear::measureRpAccuracy) and
 * prints one JSON document with every metric, its unit, the host facts
 * and the result of the output checks.
 *
 * A run repeats the workload in passes until --seconds have elapsed
 * (at least --min-passes). Every pass re-does its set-up — input
 * generation, construction, FTL preconditioning or RP calibration —
 * and then the timed public calls, on the same inputs, so every pass
 * does identical work. Set-up times are reported as medians over the
 * passes, the timed calls from the fastest pass (see Agg). Every call
 * is timed from outside; layer counts come from what the program
 * already publishes (SsdStats, FleetStats, Simulator::eventsExecuted,
 * metrics::MetricsScope snapshots).
 *
 * Checks, applied on any seed: conservation laws evaluated from
 * outside, pass-to-pass digest equality of the simulated results, and
 * the digest pinned for the default seed (--expect-digest). A replay
 * that breaks one, or that the per-replay watchdog stops, counts its
 * ops as failed.
 *
 * With --trace-out the run alternates passes with and without wall-
 * clock spans around each public call, reports self time per layer and
 * the tracing overhead, and writes the spans as Chrome trace JSON.
 *
 * Usage: rifbench --workload NAME --seed N [--seconds S]
 *                 [--min-passes N] [--watchdog-s S]
 *                 [--expect-digest HEX] [--trace-out FILE]
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/hash.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "fabric/fleet.h"
#include "ldpc/capability.h"
#include "ldpc/code.h"
#include "ldpc/decoder.h"
#include "odear/accuracy.h"
#include "odear/rp_module.h"
#include "ssd/arrival.h"
#include "ssd/snapshot_cache.h"
#include "ssd/ssd.h"
#include "trace/trace.h"
#include "trace/workload.h"

namespace {

using namespace rif;
using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** Process user+sys CPU seconds, summed over every thread. */
double
cpuSeconds()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return sec(ru.ru_utime) + sec(ru.ru_stime);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB -> MiB
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---- Metric catalog --------------------------------------------------

/**
 * How a metric is aggregated over the passes of a run. Interference
 * from other tenants of the host only ever adds time, and on a shared
 * VM it comes and goes within seconds, so host times of the timed
 * calls are read from the pass whose timed calls ran fastest. Set-up
 * times are medians over passes.
 */
enum class Agg
{
    Det,   ///< deterministic for a seed: identical in every pass
    Timed, ///< from the fastest pass
    Setup, ///< median over passes
};

struct MetricDef
{
    const char *name;
    const char *unit;
    Agg agg;
};

// Simulated-clock values use the "sim_us" unit so they are never read
// as wall-clock time. A metric a workload does not exercise reads 0.
constexpr MetricDef kMetrics[] = {
    // End to end.
    {"ops_per_s", "1/s", Agg::Timed},
    {"cpu_s", "s", Agg::Timed},
    {"setup_s", "s", Agg::Setup},
    {"peak_rss_mb", "MB", Agg::Timed},
    {"failed_frac", "ratio", Agg::Det},
    // Bases of the ratios below.
    {"bench.ops_per_pass", "count", Agg::Det},
    {"bench.passes", "count", Agg::Timed},
    // trace
    {"trace.gen_s", "s", Agg::Setup},
    {"trace.records", "count", Agg::Det},
    {"trace.records_per_s", "1/s", Agg::Setup},
    // ssd/ftl
    {"ftl.precondition_s", "s", Agg::Setup},
    {"ftl.precondition_pages", "count", Agg::Det},
    {"ftl.precondition_pages_per_s", "1/s", Agg::Setup},
    {"ftl.gc_page_moves", "count", Agg::Det},
    {"ftl.block_erases", "count", Agg::Det},
    {"ftl.host_page_writes", "count", Agg::Det},
    {"ftl.write_amp", "ratio", Agg::Det},
    // ssd/sim
    {"sim.events", "count", Agg::Det},
    {"sim.events_per_op", "ratio", Agg::Det},
    {"sim.ns_per_event", "ns", Agg::Timed},
    {"sim.events_per_s", "1/s", Agg::Timed},
    // ssd (host time of each Ssd::run)
    {"ssd.construct_s", "s", Agg::Setup},
    {"ssd.run_s.rif", "s", Agg::Timed},
    {"ssd.run_ops_per_s.rif", "1/s", Agg::Timed},
    // ssd (simulated clock, RiF replays): pinned by the digest
    {"ssd.host_requests", "count", Agg::Det},
    {"ssd.page_reads_per_op", "ratio", Agg::Det},
    {"ssd.retried_read_frac", "ratio", Agg::Det},
    {"ssd.eccwait_frac", "ratio", Agg::Det},
    {"ssd.sim_iops", "1/sim_s", Agg::Det},
    {"ssd.sim_read_p99_us", "sim_us", Agg::Det},
    // odear
    {"odear.rp.predictions", "count", Agg::Det},
    {"odear.avoided_transfer_frac", "ratio", Agg::Det},
    {"odear.calibrate_s", "s", Agg::Setup},
    {"odear.calibrate_cw_per_s", "1/s", Agg::Setup},
    {"odear.accuracy_s", "s", Agg::Timed},
    {"odear.accuracy_cw", "count", Agg::Det},
    {"odear.accuracy_cw_per_s", "1/s", Agg::Timed},
    {"odear.rp.stage.batched", "count", Agg::Det},
    {"odear.rp.stage.tail", "count", Agg::Det},
    // ldpc
    {"ldpc.code_construct_s", "s", Agg::Setup},
    {"ldpc.capability_s", "s", Agg::Timed},
    {"ldpc.capability_cw", "count", Agg::Det},
    {"ldpc.capability_cw_per_s", "1/s", Agg::Timed},
    {"ldpc.decode.iterations_per_cw", "ratio", Agg::Det},
    {"ldpc.decode.failure_frac", "ratio", Agg::Det},
    {"ldpc.ns_per_iteration", "ns", Agg::Timed},
    {"ldpc.iterations_per_s", "1/s", Agg::Timed},
    // fabric
    {"fabric.construct_s", "s", Agg::Setup},
    {"fabric.run_s", "s", Agg::Timed},
    {"fabric.sync_rounds", "count", Agg::Det},
    {"fabric.us_per_round", "us", Agg::Timed},
    {"fabric.rounds_per_s", "1/s", Agg::Timed},
    {"fabric.coalesced_frac", "ratio", Agg::Det},
    {"fabric.drive_events", "count", Agg::Det},
    {"fabric.host_events", "count", Agg::Det},
    {"fabric.cpu_per_wall", "ratio", Agg::Timed},
    {"fabric.sim_read_p99_us", "sim_us", Agg::Det},
    {"host.arrival.offered", "count", Agg::Det},
    {"host.arrival.dropped_frac", "ratio", Agg::Det},
    // Traced run only: self time per layer and tracing overhead.
    {"self_s.trace", "s", Agg::Timed},
    {"self_s.ssd_ftl", "s", Agg::Timed},
    {"self_s.ssd", "s", Agg::Timed},
    {"self_s.fabric", "s", Agg::Timed},
    {"self_s.odear", "s", Agg::Timed},
    {"self_s.ldpc", "s", Agg::Timed},
    {"self_s.bench", "s", Agg::Timed},
    {"self_frac.trace", "ratio", Agg::Timed},
    {"self_frac.ssd_ftl", "ratio", Agg::Timed},
    {"self_frac.ssd", "ratio", Agg::Timed},
    {"self_frac.fabric", "ratio", Agg::Timed},
    {"self_frac.odear", "ratio", Agg::Timed},
    {"self_frac.ldpc", "ratio", Agg::Timed},
    {"self_frac.bench", "ratio", Agg::Timed},
    {"trace.spans_per_pass", "count", Agg::Timed},
    {"trace.overhead_s", "s", Agg::Timed},
    {"trace.overhead_frac", "ratio", Agg::Timed},
};

const MetricDef &
metricDef(const std::string &name)
{
    for (const MetricDef &d : kMetrics)
        if (name == d.name)
            return d;
    std::fprintf(stderr, "rifbench: unknown metric %s\n", name.c_str());
    std::abort();
}

// ---- Wall-clock spans ------------------------------------------------

/** Layers a span is charged to (self time is reported per layer). */
const char *const kLayers[] = {"trace", "ssd_ftl", "ssd", "fabric",
                               "odear", "ldpc", "bench"};

struct Span
{
    std::string name;
    const char *layer;
    double start; ///< seconds since the run began
    double end;
    int parent; ///< index into the log, -1 for a root
    int pass;
};

/**
 * In-memory span log, written once at exit. Spans bracket public calls
 * from the driver's side; each carries its parent and the pass it
 * belongs to, and the workload id is stamped on every event.
 */
class SpanLog
{
  public:
    explicit SpanLog(Clock::time_point origin) : origin_(origin) {}

    bool enabled() const { return enabled_; }
    void setEnabled(bool on) { enabled_ = on; }

    int
    open(const char *name, const char *layer, int pass)
    {
        if (!enabled_)
            return -1;
        const int parent = stack_.empty() ? -1 : stack_.back();
        spans_.push_back(Span{name, layer, secondsSince(origin_), 0.0,
                              parent, pass});
        stack_.push_back(static_cast<int>(spans_.size()) - 1);
        return stack_.back();
    }

    void
    close(int id)
    {
        if (id < 0)
            return;
        spans_[static_cast<std::size_t>(id)].end = secondsSince(origin_);
        stack_.pop_back();
    }

    /** Self time per layer, summed over the spans of one pass. */
    std::map<std::string, double>
    selfTimes(int pass) const
    {
        std::vector<double> childTime(spans_.size(), 0.0);
        for (const Span &s : spans_)
            if (s.pass == pass && s.parent >= 0)
                childTime[static_cast<std::size_t>(s.parent)] +=
                    s.end - s.start;
        std::map<std::string, double> self;
        for (const char *layer : kLayers)
            self[layer] = 0.0;
        for (std::size_t i = 0; i < spans_.size(); ++i)
            if (spans_[i].pass == pass)
                self[spans_[i].layer] +=
                    spans_[i].end - spans_[i].start - childTime[i];
        return self;
    }

    std::size_t
    countInPass(int pass) const
    {
        return static_cast<std::size_t>(
            std::count_if(spans_.begin(), spans_.end(),
                          [&](const Span &s) { return s.pass == pass; }));
    }

    /** Chrome trace_event JSON, timestamps in wall-clock microseconds. */
    void
    writeChromeJson(std::ostream &os, const std::string &workload) const
    {
        os << "{\"traceEvents\":[\n";
        os << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
              "\"args\":{\"name\":\"rifbench "
           << workload << "\"}}";
        char buf[512];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::snprintf(buf, sizeof buf,
                          ",\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\","
                          "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":1,"
                          "\"args\":{\"id\":%zu,\"parent\":%d,\"pass\":%d,"
                          "\"workload\":\"%s\"}}",
                          s.name.c_str(), s.layer, s.start * 1e6,
                          (s.end - s.start) * 1e6, i, s.parent, s.pass,
                          workload.c_str());
            os << buf;
        }
        os << "\n]}\n";
    }

  private:
    Clock::time_point origin_;
    bool enabled_ = false;
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

// ---- Per-replay watchdog ---------------------------------------------

/**
 * Stops a run whose replay does not return within the limit. Ssd::run
 * cannot be cancelled from outside, so on expiry the watchdog thread
 * emits the report (the stuck replay's ops counted as failed) and ends
 * the process. It fires only while a replay is armed, when the main
 * thread runs nothing but the replay, and once it has fired the main
 * thread blocks in disarm(); so the report never races the main thread,
 * and arm() taking mutex_ publishes every earlier write to it.
 */
class Watchdog
{
  public:
    Watchdog(double limitS, std::function<void(const std::string &,
                                                std::uint64_t)> onExpire)
        : limitS_(limitS), onExpire_(std::move(onExpire)),
          thread_([this] { loop(); })
    {
    }

    ~Watchdog()
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            quit_ = true;
        }
        cv_.notify_all();
        thread_.join();
    }

    Watchdog(const Watchdog &) = delete;
    Watchdog &operator=(const Watchdog &) = delete;

    /** Guard one replay of `ops` operations. */
    void
    arm(const std::string &what, std::uint64_t ops)
    {
        {
            std::lock_guard<std::mutex> lock(mutex_);
            what_ = what;
            ops_ = ops;
            deadline_ = Clock::now() +
                        std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(limitS_));
            armed_ = true;
        }
        cv_.notify_all();
    }

    /**
     * End the guarded replay. If the watchdog has already fired, the
     * replay returned too late: the watchdog owns the report and ends
     * the process, so the caller blocks here until it does.
     */
    void
    disarm()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        cv_.wait(lock, [this] { return !fired_; });
        armed_ = false;
    }

  private:
    void
    loop()
    {
        std::unique_lock<std::mutex> lock(mutex_);
        while (!quit_) {
            if (!armed_) {
                cv_.wait(lock, [this] { return quit_ || armed_; });
                continue;
            }
            const auto deadline = deadline_;
            if (cv_.wait_until(lock, deadline, [&] {
                    return quit_ || !armed_ || deadline_ != deadline;
                }))
                continue;
            fired_ = true; // decided under mutex_: disarm() now blocks
            const std::string what = what_;
            const std::uint64_t ops = ops_;
            lock.unlock();
            onExpire_(what, ops);
            std::fflush(stdout);
            std::_Exit(0);
        }
    }

    double limitS_;
    std::function<void(const std::string &, std::uint64_t)> onExpire_;
    std::mutex mutex_;
    std::condition_variable cv_;
    bool quit_ = false;
    bool armed_ = false;
    bool fired_ = false;
    std::string what_;
    std::uint64_t ops_ = 0;
    Clock::time_point deadline_;
    std::thread thread_; // last: starts after the members it reads
};

// ---- Passes ----------------------------------------------------------

/** What one pass measured. */
struct PassResult
{
    double setupS = 0.0;
    double timedS = 0.0;
    double cpuS = 0.0;
    double wallS = 0.0; ///< whole pass, set-up and checks included
    bool traced = false;
    std::uint64_t ops = 0;
    std::uint64_t failedOps = 0;
    std::map<std::string, double> values;
    CacheKey digest;
    std::vector<std::string> violations;
};

/** The context a workload body runs a pass in. */
class Pass
{
  public:
    Pass(SpanLog &spans, Watchdog &watchdog, int index)
        : spans_(spans), watchdog_(watchdog), index_(index)
    {
        for (const MetricDef &d : kMetrics)
            result.values[d.name] = 0.0;
    }

    /** Run a set-up step; its wall time counts toward setup_s. */
    template <class F>
    double
    setup(const char *span, const char *layer, F &&body)
    {
        const int id = spans_.open(span, layer, index_);
        const auto t0 = Clock::now();
        body();
        const double s = secondsSince(t0);
        spans_.close(id);
        result.setupS += s;
        return s;
    }

    /**
     * Run one timed replay of `ops` operations under the watchdog; its
     * wall and CPU time count toward ops_per_s and cpu_s.
     */
    template <class F>
    double
    timed(const char *span, const char *layer, std::uint64_t ops,
          F &&body)
    {
        const int id = spans_.open(span, layer, index_);
        watchdog_.arm(span, ops);
        const double c0 = cpuSeconds();
        const auto t0 = Clock::now();
        body();
        const double s = secondsSince(t0);
        const double c = cpuSeconds() - c0;
        watchdog_.disarm();
        spans_.close(id);
        result.timedS += s;
        result.cpuS += c;
        result.ops += ops;
        lastCpuS = c;
        return s;
    }

    /**
     * Free a pass's objects inside a span charged to their layer, so
     * destructor cost is not booked as the driver's own time.
     */
    template <class F>
    void
    teardown(const char *span, const char *layer, F &&body)
    {
        const int id = spans_.open(span, layer, index_);
        body();
        spans_.close(id);
    }

    void
    set(const std::string &name, double v)
    {
        metricDef(name); // aborts on a typo
        result.values[name] = v;
    }

    /** Record a broken check; `failedOps` of the pass are lost. */
    void
    check(bool ok, std::uint64_t failedOps, const std::string &what)
    {
        if (ok)
            return;
        result.violations.push_back(what);
        result.failedOps += failedOps;
    }

    PassResult result;
    double lastCpuS = 0.0;

  private:
    SpanLog &spans_;
    Watchdog &watchdog_;
    int index_;
};

// ---- Inputs ----------------------------------------------------------

/**
 * A workload's requests, generated once in set-up. The drained
 * generator stays alive to answer the layout queries (footprint, cold
 * predicate, precondition digest) the FTL asks during preconditioning.
 */
struct Recorded
{
    std::unique_ptr<trace::TraceSource> generator;
    std::vector<trace::IoRecord> records;
};

Recorded
generate(std::unique_ptr<trace::TraceSource> generator,
         std::uint64_t expected)
{
    Recorded r;
    r.generator = std::move(generator);
    r.records.reserve(expected);
    trace::IoRecord rec;
    while (r.generator->next(rec))
        r.records.push_back(rec);
    return r;
}

/**
 * Replays recorded requests; the generator answers layout queries.
 * Without requests it only describes the layout, so a replay of it
 * preconditions the drives and nothing else.
 */
class Replay final : public trace::TraceSource
{
  public:
    explicit Replay(const Recorded &r, bool withRequests = true)
        : r_(r), end_(withRequests ? r.records.size() : 0)
    {
    }

    bool
    next(trace::IoRecord &out) override
    {
        if (cursor_ == end_)
            return false;
        out = r_.records[cursor_++];
        return true;
    }
    std::uint64_t footprintPages() const override
    {
        return r_.generator->footprintPages();
    }
    std::uint64_t coldRegionStart() const override
    {
        return r_.generator->coldRegionStart();
    }
    bool isCold(std::uint64_t lpn) const override
    {
        return r_.generator->isCold(lpn);
    }
    bool preconditionDigest(Hasher &h) const override
    {
        return r_.generator->preconditionDigest(h);
    }

  private:
    const Recorded &r_;
    std::size_t end_;
    std::size_t cursor_ = 0;
};

// ---- Digests of simulated results ------------------------------------

void
hashLatencies(Hasher &h, const PercentileTracker &t)
{
    h.add(static_cast<std::uint64_t>(t.count()));
    for (double p : {50.0, 99.0, 99.9})
        h.add(t.count() ? t.percentile(p) : 0.0);
}

void
hashStats(Hasher &h, const ssd::SsdStats &s)
{
    for (std::uint64_t v :
         {std::uint64_t(s.makespan), s.hostReadBytes, s.hostWriteBytes,
          s.hostRequests, s.pageReads, s.pageWrites, s.blockErases,
          s.gcPageMoves, s.disturbBlockRelocations, s.retriedReads,
          s.uncorTransfers, s.failedDecodes, s.rpPredictions,
          s.avoidedTransfers, s.falseInDieRetries, s.missedPredictions})
        h.add(v);
    hashLatencies(h, s.readLatencyUs);
    hashLatencies(h, s.writeLatencyUs);
    for (const ssd::ChannelUsage &u : s.channels)
        for (int st = 0; st < ssd::kChannelStates; ++st)
            h.add(std::uint64_t(u.time(static_cast<ssd::ChannelState>(st))));
}

std::string
hex(const CacheKey &k)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%016llx%016llx",
                  static_cast<unsigned long long>(k.hi),
                  static_cast<unsigned long long>(k.lo));
    return buf;
}

// ---- Shared drive helpers --------------------------------------------

std::uint64_t
snapshotMisses()
{
    return ssd::FtlSnapshotCache::instance().misses();
}

/** Simulated-clock per-layer values of the RiF replays of a pass. */
void
setSimulatedDriveMetrics(Pass &p, const std::vector<ssd::SsdStats> &runs)
{
    std::uint64_t requests = 0, pageReads = 0, retried = 0;
    std::uint64_t predictions = 0, avoided = 0, uncor = 0;
    double eccwait = 0.0, iops = 0.0;
    PercentileTracker readLat;
    for (const ssd::SsdStats &s : runs) {
        requests += s.hostRequests;
        pageReads += s.pageReads;
        retried += s.retriedReads;
        predictions += s.rpPredictions;
        avoided += s.avoidedTransfers;
        uncor += s.uncorTransfers;
        eccwait += s.channelFraction(ssd::ChannelState::EccWait);
        iops += ratio(static_cast<double>(s.hostRequests),
                      ticksToSec(s.makespan));
        for (double x : s.readLatencyUs.samples())
            readLat.add(x);
    }
    const double n = static_cast<double>(runs.size());
    p.set("ssd.host_requests", static_cast<double>(requests));
    p.set("ssd.page_reads_per_op", ratio(pageReads, requests));
    p.set("ssd.retried_read_frac", ratio(retried, pageReads));
    p.set("ssd.eccwait_frac", ratio(eccwait, n));
    p.set("ssd.sim_iops", iops);
    p.set("ssd.sim_read_p99_us",
          readLat.count() ? readLat.percentile(99.0) : 0.0);
    p.set("odear.rp.predictions", static_cast<double>(predictions));
    p.set("odear.avoided_transfer_frac",
          ratio(avoided, avoided + uncor));
}

/** A drive replay's conservation checks, evaluated from outside. */
void
checkDriveReplay(Pass &p, const char *what, const ssd::SsdStats &s,
                 std::uint64_t issued, std::uint64_t missesDuringRun)
{
    const std::uint64_t completed =
        s.readLatencyUs.count() + s.writeLatencyUs.count();
    p.check(s.hostRequests == issued && completed == issued, issued,
            std::string(what) + ": requests completed != issued");
    p.check(missesDuringRun == 0, issued,
            std::string(what) + ": FTL preconditioned in the timed phase");
}

struct DriveSetup
{
    std::unique_ptr<ssd::Ssd> ssd;
    double preconditionS = 0.0;
};

/** Construct and precondition one drive for `rec` (set-up steps). */
DriveSetup
prepareDrive(Pass &p, const ssd::SsdConfig &cfg, const Recorded &rec)
{
    DriveSetup d;
    p.set("ssd.construct_s",
          p.setup("ssd.construct", "ssd",
                  [&] { d.ssd = std::make_unique<ssd::Ssd>(cfg); }));
    Replay layout(rec, /*withRequests=*/false);
    d.preconditionS = p.setup("ftl.prepareOpen", "ssd_ftl", [&] {
        d.ssd->prepareOpen({&layout});
    });
    return d;
}

/** One timed Ssd::run with its checks; returns the run's stats. */
ssd::SsdStats
replayDrive(Pass &p, ssd::Ssd &drive, const Recorded &rec, double &runS,
            std::uint64_t &events)
{
    Replay replay(rec);
    ssd::SsdStats stats;
    const std::uint64_t m0 = snapshotMisses();
    const std::uint64_t e0 = drive.simulator().eventsExecuted();
    runS = p.timed("ssd.run", "ssd", rec.records.size(),
                   [&] { stats = drive.run(replay); });
    events = drive.simulator().eventsExecuted() - e0;
    checkDriveReplay(p, "ssd.run", stats, rec.records.size(),
                     snapshotMisses() - m0);
    return stats;
}

// ---- Workloads -------------------------------------------------------

/**
 * drive_write_gc: one drive with 16 blocks per plane, Ali2 (27 %
 * reads) over a 500 k-page footprint (42 % of the drive), 1K P/E,
 * RiFSSD, QD 64: the program path, FTL allocation, GC relocation and
 * write throttling, with retries rare.
 */
void
driveWriteGc(Pass &p, std::uint64_t seed)
{
    constexpr std::uint64_t kRequests = 320000;
    ssd::FtlSnapshotCache::instance().clear();

    trace::WorkloadSpec spec = trace::workloadByName("Ali2");
    spec.footprintPages = 500000;
    Recorded rec;
    const double genS = p.setup("trace.generate", "trace", [&] {
        rec = generate(std::make_unique<trace::SyntheticWorkload>(
                           spec, kRequests, seed),
                       kRequests);
    });

    ssd::SsdConfig cfg;
    cfg.geometry.blocksPerPlane = 16;
    cfg.peCycles = 1000.0;
    cfg.policy = ssd::PolicyKind::Rif;
    cfg.seed = seed;
    DriveSetup rif = prepareDrive(p, cfg, rec);

    double rifS = 0.0;
    std::uint64_t events = 0;
    const ssd::SsdStats s =
        replayDrive(p, *rif.ssd, rec, rifS, events);

    Hasher h;
    hashStats(h, s);
    p.result.digest = h.finish();

    const double records = static_cast<double>(rec.records.size());
    const double footprint = static_cast<double>(spec.footprintPages);
    const std::uint64_t hostPages = s.hostWriteBytes / cfg.geometry.pageBytes;
    p.set("trace.gen_s", genS);
    p.set("trace.records", records);
    p.set("trace.records_per_s", ratio(records, genS));
    p.set("ftl.precondition_s", rif.preconditionS);
    p.set("ftl.precondition_pages", footprint);
    p.set("ftl.precondition_pages_per_s",
          ratio(footprint, rif.preconditionS));
    p.set("ftl.gc_page_moves", static_cast<double>(s.gcPageMoves));
    p.set("ftl.block_erases", static_cast<double>(s.blockErases));
    p.set("ftl.host_page_writes", static_cast<double>(hostPages));
    p.set("ftl.write_amp", ratio(s.pageWrites, hostPages));
    p.set("sim.events", static_cast<double>(events));
    p.set("sim.events_per_op", ratio(events, records));
    p.set("sim.ns_per_event", ratio(rifS * 1e9, events));
    p.set("sim.events_per_s", ratio(events, rifS));
    p.set("ssd.run_s.rif", rifS);
    p.set("ssd.run_ops_per_s.rif", ratio(records, rifS));
    setSimulatedDriveMetrics(p, {s});

    p.teardown("ssd.destroy", "ssd", [&] { rif.ssd.reset(); });
    p.teardown("trace.destroy", "trace", [&] { rec = Recorded(); });
}

/**
 * fleet_poisson: 8 striped drives, Ali124 at 3K P/E, RiFSSD, Poisson
 * open loop at 400 kIOPS (below the knee: nothing is dropped), fleet
 * QD 512, host queue 1024, 10 us links. Run at 2 threads so the
 * WorkerTeam barrier path executes; round dispatch and the arrival
 * policy carry a large share of the time.
 */
void
fleetPoisson(Pass &p, std::uint64_t seed)
{
    constexpr std::uint64_t kCommands = 60000;
    ssd::FtlSnapshotCache::instance().clear();

    trace::WorkloadConfig wc;
    wc.arrival = "poisson";
    wc.rateKiops = 400.0;
    wc.queueCap = 1024;
    wc.arrivalSeed = seed ^ 0x5eed;
    Recorded rec;
    const double genS = p.setup("trace.generate", "trace", [&] {
        rec = generate(trace::openWorkload(wc,
                                           trace::workloadByName("Ali124"),
                                           kCommands, seed),
                       kCommands);
    });

    ssd::SsdConfig cfg;
    cfg.peCycles = 3000.0;
    cfg.policy = ssd::PolicyKind::Rif;
    cfg.seed = seed;
    fabric::FleetConfig fc;
    fc.drives = 8;
    fc.placement = fabric::PlacementKind::Striped;
    fc.qd = 512;
    fc.linkUs = 10.0;

    // Precondition every drive in set-up: an empty replay on a fleet of
    // the same shape builds the per-drive FTL snapshots, so the timed
    // Fleet::run only restores them.
    const double preconditionS =
        p.setup("fabric.precondition", "ssd_ftl", [&] {
            fabric::Fleet warm(cfg, fc);
            Replay layout(rec, /*withRequests=*/false);
            const auto arrival = ssd::makeArrivalPolicy(wc, fc.qd);
            warm.run(layout, *arrival);
        });
    std::unique_ptr<fabric::Fleet> fleet;
    const double constructS = p.setup("fabric.construct", "fabric", [&] {
        fleet = std::make_unique<fabric::Fleet>(cfg, fc);
    });

    Replay replay(rec);
    const auto arrival = ssd::makeArrivalPolicy(wc, fc.qd);
    fabric::FleetStats fs;
    const std::uint64_t m0 = snapshotMisses();
    const double runS = p.timed("fabric.run", "fabric", rec.records.size(),
                                [&] { fs = fleet->run(replay, *arrival); });
    const double runCpuS = p.lastCpuS;

    // Conservation, from outside.
    const ssd::ArrivalStats &a = arrival->stats();
    const std::uint64_t issued = rec.records.size();
    p.check(a.offered == issued, issued,
            "fleet: offered != records generated");
    p.check(a.offered == a.injected + a.dropped, issued,
            "fleet: offered != injected + dropped");
    p.check(fs.commands == a.injected, issued,
            "fleet: commands completed != injected");
    std::uint64_t driveRequests = 0;
    for (const ssd::SsdStats &s : fs.drives)
        driveRequests += s.hostRequests;
    p.check(driveRequests == fs.subIos, issued,
            "fleet: sum of drive host requests != fabric.sub_ios");
    p.check(snapshotMisses() == m0, issued,
            "fleet: FTL preconditioned in the timed phase");
    // A dropped arrival is a refused request.
    p.result.failedOps += a.dropped;

    Hasher h;
    for (std::uint64_t v :
         {std::uint64_t(fs.makespan), fs.commands, fs.readCommands,
          fs.subIos, fs.replicaReadsBalanced, fs.syncRounds,
          fs.roundsCoalesced, fs.barrierWaitTicks, fs.driveEvents,
          fs.hostEvents, a.offered, a.injected, a.enqueued, a.dropped,
          a.queuePeak})
        h.add(v);
    hashLatencies(h, fs.readLatencyUs);
    hashLatencies(h, fs.writeLatencyUs);
    for (const ssd::SsdStats &s : fs.drives)
        hashStats(h, s);
    p.result.digest = h.finish();

    const std::uint64_t footprint =
        static_cast<std::uint64_t>(fc.drives) *
        fleet->placement().driveFootprint(rec.generator->footprintPages());
    std::uint64_t gcMoves = 0, erases = 0, pageWrites = 0,
                  hostWriteBytes = 0;
    for (const ssd::SsdStats &s : fs.drives) {
        gcMoves += s.gcPageMoves;
        erases += s.blockErases;
        pageWrites += s.pageWrites;
        hostWriteBytes += s.hostWriteBytes;
    }
    const std::uint64_t hostPages = hostWriteBytes / cfg.geometry.pageBytes;
    const double records = static_cast<double>(issued);
    const double events = static_cast<double>(fs.driveEvents + fs.hostEvents);
    p.set("trace.gen_s", genS);
    p.set("trace.records", records);
    p.set("trace.records_per_s", ratio(records, genS));
    p.set("ftl.precondition_s", preconditionS);
    p.set("ftl.precondition_pages", static_cast<double>(footprint));
    p.set("ftl.precondition_pages_per_s",
          ratio(static_cast<double>(footprint), preconditionS));
    p.set("ftl.gc_page_moves", static_cast<double>(gcMoves));
    p.set("ftl.block_erases", static_cast<double>(erases));
    p.set("ftl.host_page_writes", static_cast<double>(hostPages));
    p.set("ftl.write_amp", ratio(pageWrites, hostPages));
    p.set("sim.events", events);
    p.set("sim.events_per_op", ratio(events, records));
    p.set("sim.ns_per_event", ratio(runS * 1e9, events));
    p.set("sim.events_per_s", ratio(events, runS));
    setSimulatedDriveMetrics(p, fs.drives);
    p.set("fabric.construct_s", constructS);
    p.set("fabric.run_s", runS);
    p.set("fabric.sync_rounds", static_cast<double>(fs.syncRounds));
    p.set("fabric.us_per_round",
          ratio(runS * 1e6, static_cast<double>(fs.syncRounds)));
    p.set("fabric.rounds_per_s",
          ratio(static_cast<double>(fs.syncRounds), runS));
    p.set("fabric.coalesced_frac",
          ratio(fs.roundsCoalesced, fs.syncRounds));
    p.set("fabric.drive_events", static_cast<double>(fs.driveEvents));
    p.set("fabric.host_events", static_cast<double>(fs.hostEvents));
    p.set("fabric.cpu_per_wall", ratio(runCpuS, runS));
    p.set("fabric.sim_read_p99_us",
          fs.readLatencyUs.count() ? fs.readLatencyUs.percentile(99.0)
                                   : 0.0);
    p.set("host.arrival.offered", static_cast<double>(a.offered));
    p.set("host.arrival.dropped_frac", ratio(a.dropped, a.offered));

    p.teardown("fabric.destroy", "fabric", [&] { fleet.reset(); });
    p.teardown("trace.destroy", "trace", [&] { rec = Recorded(); });
}

/**
 * mc_decode: the paper's QC-LDPC code with 20-iteration min-sum. The
 * defaultSweep() capability sweep, then the RP accuracy sweep (16 RBER
 * points, pruned-chunk RP, threshold calibrated in set-up). The drive
 * workloads model decode time analytically, so this is the only place
 * an LDPC/RP kernel gain can show.
 */
void
mcDecode(Pass &p, std::uint64_t seed)
{
    constexpr int kTrials = 8;       // codewords per RBER point
    constexpr int kCalibTrials = 200; // codewords at the capability RBER
    constexpr double kCapability = 0.0085;

    std::unique_ptr<ldpc::QcLdpcCode> code;
    const double codeS = p.setup("ldpc.code", "ldpc", [&] {
        code = std::make_unique<ldpc::QcLdpcCode>(ldpc::paperCode());
    });
    odear::RpConfig rpCfg; // chunk + pruning: the on-die datapath
    const double calibS =
        p.setup("odear.calibrateThreshold", "odear", [&] {
            rpCfg.rhoS = odear::RpModule::calibrateThreshold(
                *code, rpCfg, kCapability, kCalibTrials, seed ^ 0xca1);
        });
    const ldpc::MinSumDecoder decoder(*code, 20);
    const odear::RpModule rp(*code, rpCfg);

    ldpc::CapabilitySweepConfig capCfg = ldpc::defaultSweep();
    capCfg.trials = kTrials;
    capCfg.seed = seed;
    odear::AccuracySweepConfig accCfg;
    accCfg.trials = kTrials;
    accCfg.seed = seed ^ 0xacc;
    const std::uint64_t capCw = capCfg.rbers.size() * kTrials;
    const std::uint64_t accCw = 16 * kTrials; // default 3e-3 .. 33e-3

    std::vector<ldpc::CapabilityPoint> cap;
    metrics::Snapshot capSnap;
    const double capS = p.timed("ldpc.measureCapability", "ldpc", capCw,
                                [&] {
                                    metrics::MetricsScope scope;
                                    cap = ldpc::measureCapability(
                                        *code, decoder, capCfg);
                                    capSnap = scope.finish();
                                });
    std::vector<odear::AccuracyPoint> acc;
    metrics::Snapshot accSnap;
    const double accS = p.timed("odear.measureRpAccuracy", "odear", accCw,
                                [&] {
                                    metrics::MetricsScope scope;
                                    acc = odear::measureRpAccuracy(
                                        *code, rp, decoder, accCfg);
                                    accSnap = scope.finish();
                                });

    // Every drawn codeword is decoded exactly once per sweep.
    p.check(cap.size() == capCfg.rbers.size() &&
                capSnap.value("ldpc.decode.attempts") == capCw,
            capCw, "capability: codewords decoded != codewords drawn");
    p.check(acc.size() * kTrials == accCw &&
                accSnap.value("odear.rp.mc_trials") == accCw,
            accCw, "accuracy: predictions != codewords drawn");

    Hasher h;
    h.add(static_cast<std::uint64_t>(rpCfg.rhoS));
    for (const ldpc::CapabilityPoint &c : cap)
        for (double v : {c.rber, c.failureProbability, c.avgIterations,
                         c.avgSyndromeWeight, c.avgPrunedSyndromeWeight})
            h.add(v);
    for (const odear::AccuracyPoint &a : acc)
        for (double v : {a.rber, a.accuracy, a.falseRetryRate, a.missRate,
                         a.decodeFailureRate})
            h.add(v);
    p.result.digest = h.finish();

    const double iterations =
        static_cast<double>(capSnap.value("ldpc.decode.iterations"));
    p.set("ldpc.code_construct_s", codeS);
    p.set("odear.calibrate_s", calibS);
    p.set("odear.calibrate_cw_per_s", ratio(kCalibTrials, calibS));
    p.set("ldpc.capability_s", capS);
    p.set("ldpc.capability_cw", static_cast<double>(capCw));
    p.set("ldpc.capability_cw_per_s", ratio(capCw, capS));
    p.set("ldpc.decode.iterations_per_cw", ratio(iterations, capCw));
    p.set("ldpc.decode.failure_frac",
          ratio(capSnap.value("ldpc.decode.failures"), capCw));
    p.set("ldpc.ns_per_iteration", ratio(capS * 1e9, iterations));
    p.set("ldpc.iterations_per_s", ratio(iterations, capS));
    p.set("odear.accuracy_s", accS);
    p.set("odear.accuracy_cw", static_cast<double>(accCw));
    p.set("odear.accuracy_cw_per_s", ratio(accCw, accS));
    p.set("odear.rp.stage.batched",
          static_cast<double>(accSnap.value("odear.rp.stage.batched")));
    p.set("odear.rp.stage.tail",
          static_cast<double>(accSnap.value("odear.rp.stage.tail")));

    p.teardown("ldpc.destroy", "ldpc", [&] { code.reset(); });
}

/**
 * drive_gc_stall (not a benchmark workload): Ali2 on 8 blocks per
 * plane over a 400 k-page footprint (68 % fill). Ssd::run does not
 * return here; the self-test runs it to show the watchdog counting the
 * stuck replay as failed.
 */
void
driveGcStall(Pass &p, std::uint64_t seed)
{
    constexpr std::uint64_t kRequests = 2000;
    ssd::FtlSnapshotCache::instance().clear();
    trace::WorkloadSpec spec = trace::workloadByName("Ali2");
    spec.footprintPages = 400000;
    Recorded rec;
    p.setup("trace.generate", "trace", [&] {
        rec = generate(std::make_unique<trace::SyntheticWorkload>(
                           spec, kRequests, seed),
                       kRequests);
    });
    ssd::SsdConfig cfg;
    cfg.geometry.blocksPerPlane = 8;
    cfg.policy = ssd::PolicyKind::Rif;
    cfg.seed = seed;
    DriveSetup rif = prepareDrive(p, cfg, rec);
    double runS = 0.0;
    std::uint64_t events = 0;
    replayDrive(p, *rif.ssd, rec, runS, events);
}

struct WorkloadDef
{
    const char *name;
    void (*body)(Pass &, std::uint64_t);
};

constexpr WorkloadDef kWorkloads[] = {
    {"drive_write_gc", driveWriteGc},
    {"fleet_poisson", fleetPoisson},
    {"mc_decode", mcDecode},
    {"drive_gc_stall", driveGcStall},
};

// ---- Report ----------------------------------------------------------

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int minPasses = 3;
    double watchdogS = 60.0;
    std::string expectDigest;
    std::string traceOut;
};

/** Everything the report is built from; guarded by the watchdog. */
struct RunState
{
    std::vector<PassResult> passes;
    std::uint64_t hungOps = 0;
    std::string hung;
};

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        out += c;
    }
    return out;
}

void
printReport(const Options &opt, const RunState &st, const SpanLog &spans)
{
    std::uint64_t attempted = st.hungOps, failed = st.hungOps;
    std::vector<std::string> violations;
    if (!st.hung.empty())
        violations.push_back(st.hung + ": watchdog expired after " +
                             std::to_string(opt.watchdogS) + " s");
    const std::string digest =
        st.passes.empty() ? "" : hex(st.passes.front().digest);
    for (std::size_t i = 0; i < st.passes.size(); ++i) {
        const PassResult &r = st.passes[i];
        std::uint64_t lost = r.failedOps;
        if (hex(r.digest) != digest) {
            violations.push_back("pass " + std::to_string(i) +
                                 ": digest differs from pass 0");
            lost = r.ops;
        }
        attempted += r.ops;
        failed += std::min(lost, r.ops);
        for (const std::string &v : r.violations)
            violations.push_back("pass " + std::to_string(i) + ": " + v);
    }
    if (!opt.expectDigest.empty() && digest != opt.expectDigest) {
        violations.push_back("digest " + digest +
                             " != pinned digest " + opt.expectDigest);
        failed = attempted;
    }
    if (attempted == 0)
        attempted = 1; // nothing ran: report one failed op, not 0/0
    if (st.passes.empty())
        failed = attempted;

    std::size_t fastest = 0;
    std::vector<double> traced, untraced;
    for (std::size_t i = 0; i < st.passes.size(); ++i) {
        const PassResult &r = st.passes[i];
        if (r.timedS < st.passes[fastest].timedS)
            fastest = i;
        if (i > 0)
            (r.traced ? traced : untraced).push_back(r.wallS);
    }
    std::map<std::string, double> value;
    for (const MetricDef &d : kMetrics) {
        if (st.passes.empty())
            break;
        if (d.agg == Agg::Setup) {
            std::vector<double> v;
            for (const PassResult &r : st.passes)
                v.push_back(r.values.at(d.name));
            value[d.name] = median(v);
        } else {
            value[d.name] = st.passes[fastest].values.at(d.name);
        }
    }
    // Self times come from the traced passes only.
    if (!traced.empty() && !untraced.empty()) {
        for (const char *layer : kLayers) {
            std::vector<double> self, frac;
            for (std::size_t i = 0; i < st.passes.size(); ++i) {
                if (!st.passes[i].traced)
                    continue;
                const double t =
                    spans.selfTimes(static_cast<int>(i))[layer];
                self.push_back(t);
                frac.push_back(ratio(t, st.passes[i].wallS));
            }
            value[std::string("self_s.") + layer] = median(self);
            value[std::string("self_frac.") + layer] = median(frac);
        }
        std::vector<double> n;
        for (std::size_t i = 0; i < st.passes.size(); ++i)
            if (st.passes[i].traced)
                n.push_back(static_cast<double>(
                    spans.countInPass(static_cast<int>(i))));
        value["trace.spans_per_pass"] = median(n);
        const double over = median(traced) - median(untraced);
        value["trace.overhead_s"] = over;
        value["trace.overhead_frac"] = ratio(over, median(untraced));
    }
    value["bench.passes"] = static_cast<double>(st.passes.size());
    value["peak_rss_mb"] = peakRssMb();
    value["failed_frac"] = ratio(failed, attempted);

    const bool avx2 = __builtin_cpu_supports("avx2");
    std::printf("{\n  \"workload\": \"%s\",\n  \"seed\": %llu,\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed));
    std::printf("  \"host\": {\"nproc\": %u, \"avx2\": %s, "
                "\"simd_build\": %d, \"metrics_build\": %d, "
                "\"threads\": %d, \"compiler\": \"%s\", "
                "\"build_type\": \"%s\"},\n",
                std::thread::hardware_concurrency(),
                avx2 ? "true" : "false", RIF_SIMD_ENABLED,
                RIF_METRICS_ENABLED, globalThreadCount(),
                jsonEscape(__VERSION__).c_str(), RIFBENCH_BUILD_TYPE);
    std::printf("  \"digest\": \"%s\",\n", digest.c_str());
    std::printf("  \"correct\": %s,\n  \"attempted\": %llu,\n"
                "  \"failed\": %llu,\n",
                violations.empty() ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed));
    std::printf("  \"violations\": [");
    for (std::size_t i = 0; i < violations.size(); ++i)
        std::printf("%s\"%s\"", i ? ", " : "",
                    jsonEscape(violations[i]).c_str());
    std::printf("],\n  \"metrics\": {");
    bool first = true;
    for (const MetricDef &d : kMetrics) {
        std::printf("%s\n    \"%s\": {\"value\": %.17g, \"unit\": \"%s\", "
                    "\"det\": %s}",
                    first ? "" : ",", d.name, value[d.name], d.unit,
                    d.agg == Agg::Det ? "true" : "false");
        first = false;
    }
    std::printf("\n  }\n}\n");
    std::fflush(stdout);
}

[[noreturn]] void
usage(const char *msg)
{
    std::fprintf(stderr,
                 "rifbench: %s\nusage: rifbench --workload NAME --seed N "
                 "[--seconds S] [--min-passes N] [--watchdog-s S] "
                 "[--expect-digest HEX] [--trace-out FILE]\n",
                 msg);
    std::exit(2);
}

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + a).c_str());
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            o.workload = v;
        } else if (a == "--seed") {
            o.seed = std::strtoull(v.c_str(), &end, 10);
        } else if (a == "--seconds") {
            o.seconds = std::strtod(v.c_str(), &end);
        } else if (a == "--min-passes") {
            o.minPasses = static_cast<int>(std::strtol(v.c_str(), &end, 10));
        } else if (a == "--watchdog-s") {
            o.watchdogS = std::strtod(v.c_str(), &end);
        } else if (a == "--expect-digest") {
            o.expectDigest = v;
        } else if (a == "--trace-out") {
            o.traceOut = v;
        } else {
            usage(("unknown option " + a).c_str());
        }
        if (end && *end != '\0')
            usage(("bad value for " + a + ": " + v).c_str());
    }
    if (o.workload.empty())
        usage("--workload is required");
    if (!(o.seconds >= 0.0) || o.minPasses < 1 || !(o.watchdogS > 0.0))
        usage("--seconds must be >= 0, --min-passes >= 1, "
              "--watchdog-s > 0");
    return o;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);
    const WorkloadDef *wl = nullptr;
    for (const WorkloadDef &w : kWorkloads)
        if (opt.workload == w.name)
            wl = &w;
    if (!wl)
        usage(("unknown workload " + opt.workload).c_str());

    const auto origin = Clock::now();
    SpanLog spans(origin);
    RunState state;
    Watchdog watchdog(opt.watchdogS,
                      [&](const std::string &what, std::uint64_t ops) {
                          state.hung = what;
                          state.hungOps = ops;
                          printReport(opt, state, spans);
                      });

    // Passes run back to back until the time is used. The traced run
    // alternates untraced and traced passes so the overhead compares
    // like with like; the first pass, which also warms the allocator
    // and page tables, is left out of that comparison.
    const bool traceRun = !opt.traceOut.empty();
    for (int i = 0; i < opt.minPasses || secondsSince(origin) < opt.seconds;
         ++i) {
        spans.setEnabled(traceRun && i % 2 == 1);
        Pass pass(spans, watchdog, i);
        pass.result.traced = spans.enabled();
        const auto t0 = Clock::now();
        const int root = spans.open("pass", "bench", i);
        wl->body(pass, opt.seed);
        spans.close(root);
        PassResult &r = pass.result;
        r.wallS = secondsSince(t0);
        r.values["ops_per_s"] = ratio(r.ops, r.timedS);
        r.values["cpu_s"] = r.cpuS;
        r.values["setup_s"] = r.setupS;
        r.values["bench.ops_per_pass"] = static_cast<double>(r.ops);
        state.passes.push_back(std::move(pass.result));
    }

    printReport(opt, state, spans);
    if (traceRun) {
        std::ofstream os(opt.traceOut);
        spans.writeChromeJson(os, opt.workload);
        if (!os) {
            std::fprintf(stderr, "rifbench: cannot write %s\n",
                         opt.traceOut.c_str());
            return 1;
        }
    }
    return 0;
}
