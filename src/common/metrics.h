/**
 * @file
 * Hierarchical metrics registry for the whole stack: named counters,
 * high-water gauges and full-sample distributions, bumped through
 * inlined handles that compile to a TLS load + null check + array bump.
 *
 * Determinism contract (the same one the golden-CSV suites enforce):
 * values are collected in per-thread shards and merged only with
 * commutative, associative operations — counters sum, gauges take the
 * max, distributions form a sorted multiset — and snapshots order
 * entries by metric *name*, so the published bytes are identical at
 * any RIF_THREADS setting. Metric ids are process-global and
 * registration-order dependent; names are the stable identity.
 *
 * Scoping: a MetricsScope installs a Collector as the thread's active
 * collector; the pool in common/parallel propagates it to workers via
 * registerTaskContext, so bumps from inside parallelFor bodies (nested
 * ones included) land in the scope that started the region. Scopes
 * nest — finish() folds the inner collector into the enclosing one,
 * which is how per-run snapshots aggregate into per-scenario totals.
 *
 * See docs/OBSERVABILITY.md for the naming scheme and the full catalog.
 */

#ifndef RIF_COMMON_METRICS_H
#define RIF_COMMON_METRICS_H

#include <cstdint>
#include <deque>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

/** Hot-path instrumentation is always compiled in; the macro stays 1
 *  for tools that report it. */
#define RIF_METRICS_ENABLED 1

namespace rif {

class Table;

namespace metrics {

/** What a metric accumulates and how shards merge. */
enum class Kind : std::uint8_t {
    Counter,      ///< monotonically increasing u64; shards merge by sum
    Gauge,        ///< u64 high-water mark; shards merge by max
    Distribution, ///< full double samples; shards merge as sorted multiset
};

/** Static description of one registered metric. */
struct MetricInfo {
    std::string name; ///< hierarchical dotted name, e.g. "ssd.chan3.cor_ticks"
    Kind kind;
    std::string unit; ///< "ticks", "ops", "bytes", "us", ...
    std::string help; ///< one-line description for the catalog
};

/**
 * Register (or look up) a metric in the process-wide schema and return
 * its id. Registering an existing name returns the existing id and
 * asserts the kind matches; empty unit/help on the existing entry are
 * backfilled. Thread-safe; ids are stable for the process lifetime.
 */
int registerMetric(std::string_view name, Kind kind,
                   std::string_view unit = "", std::string_view help = "");

/** Id for `name`, or -1 if never registered. */
int findMetric(std::string_view name);

/** Number of metrics registered so far. */
int schemaSize();

/** Schema entry for a valid id (stable reference). */
const MetricInfo &metricInfo(int id);

class Collector;

namespace detail {
// Inline definition (not an extern declaration) so every TU sees the
// constant initializer: GCC then emits a direct TLS access instead of
// routing through the C++ thread_local init wrapper, which both keeps
// a bump to TLS-load + null-check + increment and avoids a UBSan
// false positive on the wrapper's returned address.
inline constinit thread_local Collector *t_activeCollector = nullptr;
} // namespace detail

/** The innermost collector installed on this thread, or nullptr. */
inline Collector *
activeCollector()
{
    return detail::t_activeCollector;
}

/** One merged, name-sorted metric value. */
struct SnapshotEntry {
    std::string name;
    Kind kind;
    std::string unit;
    std::uint64_t value = 0;     ///< counter sum / gauge max
    std::vector<double> samples; ///< Distribution only; ascending
};

/**
 * Immutable merged view of a Collector. Entries are sorted by name and
 * every accessor is deterministic, so writeJson() output is
 * byte-identical across thread counts.
 */
class Snapshot
{
  public:
    const std::vector<SnapshotEntry> &entries() const { return entries_; }
    bool empty() const { return entries_.empty(); }

    /** Entry by name, or nullptr. */
    const SnapshotEntry *find(std::string_view name) const;

    /** Counter/gauge value by name; 0 when absent. */
    std::uint64_t value(std::string_view name) const;

    /** Distribution sample count by name; 0 when absent. */
    std::uint64_t distCount(std::string_view name) const;

    /**
     * Nearest-rank percentile of a distribution — bit-identical to
     * PercentileTracker::percentile on the same samples. 0 when absent
     * or empty.
     */
    double distPercentile(std::string_view name, double p) const;

    /**
     * Mean over the *sorted* samples — matches PercentileTracker::mean
     * after its in-place sort, which is the order Fig. 19 summed in.
     */
    double distMean(std::string_view name) const;

    /**
     * One JSON object keyed by metric name, keys in sorted order,
     * doubles printed with %.17g (round-trip exact).
     */
    void writeJson(std::ostream &os) const;

    /**
     * Registry rendered as a table (metric/kind/unit/value/count/
     * p50/p99/p99.99/mean) for the `rif metrics` subcommand.
     */
    Table toTable(const std::string &title = "") const;

  private:
    friend class Collector;
    std::vector<SnapshotEntry> entries_;
};

/**
 * Accumulates bumps in per-thread shards. Created via MetricsScope in
 * normal use; public so tests can drive it directly. All mutators are
 * thread-safe; snapshot()/foldInto() must not race with mutators
 * (call them after parallel regions complete).
 */
class Collector
{
  public:
    struct Shard; // per-thread accumulation arrays (defined in metrics.cc)

    Collector();
    ~Collector();
    Collector(const Collector &) = delete;
    Collector &operator=(const Collector &) = delete;

    /** Add `delta` to counter `id`. */
    void add(int id, std::uint64_t delta);

    /** Raise gauge `id` to at least `v`. */
    void gaugeMax(int id, std::uint64_t v);

    /** Record one distribution sample. */
    void observe(int id, double sample);

    /** Merge all shards into a name-sorted snapshot. */
    Snapshot snapshot() const;

    /** Fold this collector's accumulations into `dst`. */
    void foldInto(Collector &dst) const;

  private:
    struct Impl;

    Shard &shard();

    std::unique_ptr<Impl> impl_;
};

/**
 * RAII activation of a Collector on the constructing thread (and, via
 * the pool's task-context hooks, on every worker participating in
 * parallel regions started while the scope is active). finish()
 * returns the merged snapshot and folds the values into the enclosing
 * scope, if any; the destructor finishes implicitly. Construct and
 * destroy on the same thread.
 */
class MetricsScope
{
  public:
    MetricsScope();
    ~MetricsScope();
    MetricsScope(const MetricsScope &) = delete;
    MetricsScope &operator=(const MetricsScope &) = delete;

    Collector &collector() { return collector_; }

    /** Deactivate, fold into the parent scope, return the snapshot. */
    Snapshot finish();

  private:
    Collector collector_;
    Collector *parent_;
    bool finished_ = false;
};

/*
 * Hot-path handles. Instrumentation sites declare a `static const`
 * handle (registration happens once) and bump it unconditionally. With
 * no active collector a bump is a TLS load and a branch.
 */
/** Counter handle: registers at construction, add() is hot-path safe. */
class Counter
{
  public:
    explicit Counter(const char *name, const char *unit = "",
                     const char *help = "")
        : id_(registerMetric(name, Kind::Counter, unit, help))
    {
    }

    void
    add(std::uint64_t delta) const
    {
        if (Collector *c = activeCollector())
            c->add(id_, delta);
    }

    void inc() const { add(1); }
    int id() const { return id_; }

  private:
    int id_;
};

/** Gauge handle: observe() raises the scope's high-water mark. */
class Gauge
{
  public:
    explicit Gauge(const char *name, const char *unit = "",
                   const char *help = "")
        : id_(registerMetric(name, Kind::Gauge, unit, help))
    {
    }

    void
    observe(std::uint64_t v) const
    {
        if (Collector *c = activeCollector())
            c->gaugeMax(id_, v);
    }

    int id() const { return id_; }

  private:
    int id_;
};

/** Distribution handle: observe() records one sample. */
class Distribution
{
  public:
    explicit Distribution(const char *name, const char *unit = "",
                          const char *help = "")
        : id_(registerMetric(name, Kind::Distribution, unit, help))
    {
    }

    void
    observe(double sample) const
    {
        if (Collector *c = activeCollector())
            c->observe(id_, sample);
    }

    int id() const { return id_; }

  private:
    int id_;
};

} // namespace metrics
} // namespace rif

#endif // RIF_COMMON_METRICS_H
