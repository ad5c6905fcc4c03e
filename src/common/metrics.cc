#include "common/metrics.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <ostream>
#include <unordered_map>

#include "common/json.h"
#include "common/logging.h"
#include "common/parallel.h"
#include "common/table.h"

namespace rif {
namespace metrics {

namespace {

/** Process-wide name -> id schema. */
struct Schema
{
    std::mutex mutex;
    std::deque<MetricInfo> infos; // deque: stable references
    std::unordered_map<std::string, int> byName;
};

Schema &
schema()
{
    static Schema s;
    return s;
}

/** Unique per-Collector-instance stamp for the TLS shard cache. */
std::atomic<std::uint64_t> g_collectorEpoch{1};

std::string
formatDouble(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

/** Nearest-rank percentile over sorted samples (PercentileTracker's math). */
double
sortedPercentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const double clamped = std::clamp(p, 0.0, 100.0);
    const auto n = sorted.size();
    auto rank = static_cast<std::size_t>(
        std::ceil(clamped / 100.0 * static_cast<double>(n)));
    if (rank > 0)
        --rank;
    return sorted[std::min(rank, n - 1)];
}

/** Mean summed in sorted order (PercentileTracker::mean after its sort). */
double
sortedMean(const std::vector<double> &sorted)
{
    if (sorted.empty())
        return 0.0;
    double s = 0.0;
    for (double x : sorted)
        s += x;
    return s / static_cast<double>(sorted.size());
}

} // namespace


int
registerMetric(std::string_view name, Kind kind, std::string_view unit,
               std::string_view help)
{
    Schema &s = schema();
    std::unique_lock<std::mutex> lock(s.mutex);
    auto it = s.byName.find(std::string(name));
    if (it != s.byName.end()) {
        MetricInfo &info = s.infos[static_cast<std::size_t>(it->second)];
        RIF_ASSERT(info.kind == kind, "metric '", info.name,
                   "' re-registered with a different kind");
        if (info.unit.empty() && !unit.empty())
            info.unit = std::string(unit);
        if (info.help.empty() && !help.empty())
            info.help = std::string(help);
        return it->second;
    }
    const int id = static_cast<int>(s.infos.size());
    s.infos.push_back(MetricInfo{std::string(name), kind, std::string(unit),
                                 std::string(help)});
    s.byName.emplace(std::string(name), id);
    return id;
}

int
findMetric(std::string_view name)
{
    Schema &s = schema();
    std::unique_lock<std::mutex> lock(s.mutex);
    auto it = s.byName.find(std::string(name));
    return it == s.byName.end() ? -1 : it->second;
}

int
schemaSize()
{
    Schema &s = schema();
    std::unique_lock<std::mutex> lock(s.mutex);
    return static_cast<int>(s.infos.size());
}

const MetricInfo &
metricInfo(int id)
{
    Schema &s = schema();
    std::unique_lock<std::mutex> lock(s.mutex);
    return s.infos.at(static_cast<std::size_t>(id));
}

/** One thread's accumulation arrays, grown on demand to the id used. */
struct Collector::Shard
{
    std::vector<std::uint64_t> scalars; // counter sums / gauge maxima
    std::vector<std::uint8_t> touched;
    std::vector<std::vector<double>> dists;

    void
    reach(int id)
    {
        const auto need = static_cast<std::size_t>(id) + 1;
        if (scalars.size() < need) {
            scalars.resize(need, 0);
            touched.resize(need, 0);
            dists.resize(need);
        }
    }
};

struct Collector::Impl
{
    std::mutex mutex;
    std::deque<Shard> shards; // deque: stable addresses for the TLS cache
    std::uint64_t epoch;
};

namespace {

/** TLS fast path: the shard this thread last used, keyed by epoch. */
struct ShardCache
{
    std::uint64_t epoch = 0;
    Collector::Shard *shard = nullptr;
};
thread_local ShardCache t_shardCache;

} // namespace

Collector::Collector()
    : impl_(std::make_unique<Impl>())
{
    impl_->epoch =
        g_collectorEpoch.fetch_add(1, std::memory_order_relaxed);
}

Collector::~Collector() = default;

Collector::Shard &
Collector::shard()
{
    ShardCache &cache = t_shardCache;
    if (cache.epoch == impl_->epoch)
        return *cache.shard;
    std::unique_lock<std::mutex> lock(impl_->mutex);
    Shard &s = impl_->shards.emplace_back();
    cache.epoch = impl_->epoch;
    cache.shard = &s;
    return s;
}

void
Collector::add(int id, std::uint64_t delta)
{
    Shard &s = shard();
    s.reach(id);
    s.scalars[static_cast<std::size_t>(id)] += delta;
    s.touched[static_cast<std::size_t>(id)] = 1;
}

void
Collector::gaugeMax(int id, std::uint64_t v)
{
    Shard &s = shard();
    s.reach(id);
    auto &slot = s.scalars[static_cast<std::size_t>(id)];
    slot = std::max(slot, v);
    s.touched[static_cast<std::size_t>(id)] = 1;
}

void
Collector::observe(int id, double sample)
{
    Shard &s = shard();
    s.reach(id);
    s.dists[static_cast<std::size_t>(id)].push_back(sample);
    s.touched[static_cast<std::size_t>(id)] = 1;
}

Snapshot
Collector::snapshot() const
{
    Snapshot snap;
    std::unique_lock<std::mutex> lock(impl_->mutex);
    const int n = schemaSize();
    for (int id = 0; id < n; ++id) {
        bool touched = false;
        std::uint64_t sum = 0;
        std::uint64_t maxv = 0;
        std::vector<double> samples;
        for (const Shard &s : impl_->shards) {
            const auto idx = static_cast<std::size_t>(id);
            if (idx >= s.touched.size() || !s.touched[idx])
                continue;
            touched = true;
            sum += s.scalars[idx];
            maxv = std::max(maxv, s.scalars[idx]);
            samples.insert(samples.end(), s.dists[idx].begin(),
                           s.dists[idx].end());
        }
        if (!touched)
            continue;
        const MetricInfo &info = metricInfo(id);
        SnapshotEntry e;
        e.name = info.name;
        e.kind = info.kind;
        e.unit = info.unit;
        switch (info.kind) {
          case Kind::Counter: e.value = sum; break;
          case Kind::Gauge: e.value = maxv; break;
          case Kind::Distribution:
            std::sort(samples.begin(), samples.end());
            e.samples = std::move(samples);
            e.value = e.samples.size();
            break;
        }
        snap.entries_.push_back(std::move(e));
    }
    std::sort(snap.entries_.begin(), snap.entries_.end(),
              [](const SnapshotEntry &a, const SnapshotEntry &b) {
                  return a.name < b.name;
              });
    return snap;
}

void
Collector::foldInto(Collector &dst) const
{
    std::unique_lock<std::mutex> lock(impl_->mutex);
    for (const Shard &s : impl_->shards) {
        for (std::size_t idx = 0; idx < s.touched.size(); ++idx) {
            if (!s.touched[idx])
                continue;
            const int id = static_cast<int>(idx);
            switch (metricInfo(id).kind) {
              case Kind::Counter: dst.add(id, s.scalars[idx]); break;
              case Kind::Gauge: dst.gaugeMax(id, s.scalars[idx]); break;
              case Kind::Distribution:
                for (double x : s.dists[idx])
                    dst.observe(id, x);
                break;
            }
        }
    }
}

const SnapshotEntry *
Snapshot::find(std::string_view name) const
{
    for (const SnapshotEntry &e : entries_)
        if (e.name == name)
            return &e;
    return nullptr;
}

std::uint64_t
Snapshot::value(std::string_view name) const
{
    const SnapshotEntry *e = find(name);
    return e ? e->value : 0;
}

std::uint64_t
Snapshot::distCount(std::string_view name) const
{
    const SnapshotEntry *e = find(name);
    return e ? e->samples.size() : 0;
}

double
Snapshot::distPercentile(std::string_view name, double p) const
{
    const SnapshotEntry *e = find(name);
    return e ? sortedPercentile(e->samples, p) : 0.0;
}

double
Snapshot::distMean(std::string_view name) const
{
    const SnapshotEntry *e = find(name);
    return e ? sortedMean(e->samples) : 0.0;
}

void
Snapshot::writeJson(std::ostream &os) const
{
    os << "{";
    bool first = true;
    for (const SnapshotEntry &e : entries_) {
        if (!first)
            os << ",";
        first = false;
        os << "\n  ";
        os << '"' << jsonEscape(e.name) << "\": {\"kind\": ";
        switch (e.kind) {
          case Kind::Counter: os << "\"counter\""; break;
          case Kind::Gauge: os << "\"gauge\""; break;
          case Kind::Distribution: os << "\"distribution\""; break;
        }
        os << ", \"unit\": \"" << jsonEscape(e.unit) << '"';
        if (e.kind == Kind::Distribution) {
            os << ", \"count\": " << e.samples.size();
            os << ", \"min\": "
               << formatDouble(e.samples.empty() ? 0.0 : e.samples.front());
            os << ", \"max\": "
               << formatDouble(e.samples.empty() ? 0.0 : e.samples.back());
            os << ", \"mean\": " << formatDouble(sortedMean(e.samples));
            for (double p : {50.0, 90.0, 99.0, 99.9, 99.99}) {
                char key[16];
                std::snprintf(key, sizeof(key), "p%g", p);
                os << ", \"" << key
                   << "\": " << formatDouble(sortedPercentile(e.samples, p));
            }
        } else {
            os << ", \"value\": " << e.value;
        }
        os << "}";
    }
    os << (entries_.empty() ? "}" : "\n}");
}

Table
Snapshot::toTable(const std::string &title) const
{
    Table t(title);
    t.setHeader({"metric", "kind", "unit", "value", "count", "p50", "p99",
                 "p99.99", "mean"});
    for (const SnapshotEntry &e : entries_) {
        const char *kind = e.kind == Kind::Counter ? "counter"
                           : e.kind == Kind::Gauge ? "gauge"
                                                   : "dist";
        if (e.kind == Kind::Distribution) {
            t.addRow({e.name, kind, e.unit, "",
                      Table::num(static_cast<std::uint64_t>(e.samples.size())),
                      Table::num(sortedPercentile(e.samples, 50.0), 3),
                      Table::num(sortedPercentile(e.samples, 99.0), 3),
                      Table::num(sortedPercentile(e.samples, 99.99), 3),
                      Table::num(sortedMean(e.samples), 3)});
        } else {
            t.addRow({e.name, kind, e.unit, Table::num(e.value), "", "", "",
                      "", ""});
        }
    }
    return t;
}

MetricsScope::MetricsScope()
    : parent_(detail::t_activeCollector)
{
    detail::t_activeCollector = &collector_;
}

MetricsScope::~MetricsScope()
{
    if (!finished_)
        finish();
}

Snapshot
MetricsScope::finish()
{
    RIF_ASSERT(!finished_, "MetricsScope finished twice");
    finished_ = true;
    RIF_ASSERT(detail::t_activeCollector == &collector_,
               "MetricsScope finished on a different thread or out of order");
    detail::t_activeCollector = parent_;
    Snapshot snap = collector_.snapshot();
    if (parent_)
        collector_.foldInto(*parent_);
    return snap;
}

namespace {

/** Propagate the active collector into pool workers (see parallel.h). */
const bool g_hooksRegistered = [] {
    registerTaskContext(TaskContextHooks{
        []() -> void * { return detail::t_activeCollector; },
        [](void *captured) -> void * {
            void *prev = detail::t_activeCollector;
            detail::t_activeCollector = static_cast<Collector *>(captured);
            return prev;
        },
        [](void *previous) {
            detail::t_activeCollector = static_cast<Collector *>(previous);
        }});
    return true;
}();

} // namespace

} // namespace metrics
} // namespace rif
