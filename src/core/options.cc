#include "core/options.h"

#include <functional>
#include <type_traits>
#include <variant>

#include "common/logging.h"
#include "common/parse.h"
#include "fabric/config.h"
#include "trace/trace.h"
#include "trace/stream.h"
#include "trace/workload.h"

namespace rif {
namespace core {

namespace {

using Ssd = ssd::SsdConfig;
using Fleet = fabric::FleetConfig;
using Workload = trace::WorkloadConfig;

/** Parses a `--set` value (fatal on error) and writes it into a Cfg. */
template <class Cfg>
using Setter = std::function<void(Cfg &, const std::string &)>;

[[noreturn]] void
badValue(const std::string &key, const std::string &value,
         const std::string &expected)
{
    fatal("--set ", key, ": invalid value '", value, "' (expected ",
          expected, ")");
}

/** `value` as a T in [lo, hi] — (lo, hi] when openLo — or fatal. */
template <class T>
T
parseIn(const char *key, const std::string &value, T lo, T hi,
        bool openLo)
{
    const std::optional<T> v = parseNumber<T>(value);
    if (!v || !(openLo ? *v > lo : *v >= lo) || !(*v <= hi))
        badValue(key, value,
                 std::string(std::is_integral_v<T> ? "integer in "
                                                   : "finite number in ") +
                     (openLo ? "(" : "[") + std::to_string(lo) + ", " +
                     std::to_string(hi) + "]");
    return *v;
}

} // namespace

/** One `--set` key: its help line and the setter of its one field. */
struct OptionField
{
    const char *key;
    const char *help;
    std::variant<Setter<Ssd>, Setter<RunScale>, Setter<Fleet>,
                 Setter<Workload>>
        set;
};

namespace {

/**
 * A numeric key writing the Cfg field `ref(cfg)` returns, parsed as
 * that field's own type and checked against [lo, hi] ((lo, hi] when
 * openLo).
 */
template <class Cfg, class Ref,
          class T = std::remove_reference_t<std::invoke_result_t<Ref, Cfg &>>>
OptionField
number(const char *key, const char *help, Ref ref,
       std::type_identity_t<T> lo, std::type_identity_t<T> hi,
       bool openLo = false)
{
    return {key, help,
            Setter<Cfg>([=](Cfg &c, const std::string &v) {
                ref(c) = parseIn<T>(key, v, lo, hi, openLo);
            })};
}

/** A latency key: microseconds in [0, 1e6] in, ticks stored. */
template <class Ref>
OptionField
latencyUs(const char *key, const char *help, Ref ref)
{
    return {key, help, Setter<Ssd>([=](Ssd &c, const std::string &v) {
                ref(c) = usToTicks(parseIn(key, v, 0.0, 1e6, false));
            })};
}

const std::vector<OptionField> &
fields()
{
    static const std::vector<OptionField> f = {
        // --- ssd.* -----------------------------------------------------
        {"ssd.policy",
         "read-retry policy: SSDzero|CONV|SSDone|SENC|SWR|SWR+|RPSSD|"
         "RiFSSD",
         Setter<Ssd>([](Ssd &c, const std::string &v) {
             const auto parsed = ssd::parsePolicy(v);
             if (!parsed) {
                 std::string valid;
                 for (ssd::PolicyKind k : ssd::kAllPolicyKinds) {
                     if (!valid.empty())
                         valid += "|";
                     valid += ssd::policyName(k);
                 }
                 badValue("ssd.policy", v, valid);
             }
             c.policy = *parsed;
         })},
        number<Ssd>("ssd.hostGBps", "host interface peak bandwidth (GB/s)",
                    [](Ssd &c) -> auto & { return c.hostGBps; }, 0.0, 1e4,
                    true),
        number<Ssd>("ssd.queueDepth", "closed-loop outstanding host requests",
                    [](Ssd &c) -> auto & { return c.queueDepth; }, 1, 65536),
        number<Ssd>("ssd.eccBufferPages",
                    "pages buffered ahead of the ECC engine per channel",
                    [](Ssd &c) -> auto & { return c.eccBufferPages; }, 1,
                    4096),
        number<Ssd>("ssd.peCycles", "P/E cycles experienced by every block",
                    [](Ssd &c) -> auto & { return c.peCycles; }, 0.0, 1e7),
        number<Ssd>("ssd.refreshDays", "periodic refresh window (days)",
                    [](Ssd &c) -> auto & { return c.refreshDays; }, 0.0,
                    1e5, true),
        number<Ssd>("ssd.coldAgeMinDays",
                    "lower bound of cold-data age (days)",
                    [](Ssd &c) -> auto & { return c.coldAgeMinDays; }, 0.0,
                    1e5),
        number<Ssd>("ssd.hotAgeDays", "initial age bound of hot data (days)",
                    [](Ssd &c) -> auto & { return c.hotAgeDays; }, 0.0,
                    1e5),
        number<Ssd>("ssd.sentinelExtraReadProb",
                    "SENC extra sentinel-read probability",
                    [](Ssd &c) -> auto & { return c.sentinelExtraReadProb; },
                    0.0, 1.0),
        number<Ssd>("ssd.vrefTrackedFraction",
                    "SWR+ fraction of reads with pre-optimized VREF",
                    [](Ssd &c) -> auto & { return c.vrefTrackedFraction; },
                    0.0, 1.0),
        latencyUs("ssd.tPredController",
                  "controller-side RP latency (us, RPSSD)",
                  [](Ssd &c) -> auto & { return c.tPredController; }),
        number<Ssd>("ssd.seqStepFactor",
                    "RBER multiplier per conventional VREF step",
                    [](Ssd &c) -> auto & { return c.seqStepFactor; }, 0.0,
                    1.0, true),
        number<Ssd>("ssd.maxRetrySteps",
                    "max VREF steps of the conventional sequence",
                    [](Ssd &c) -> auto & { return c.maxRetrySteps; }, 1, 64),
        number<Ssd>("ssd.rpObservedBits",
                    "effective bits observed by the RP predictor",
                    [](Ssd &c) -> auto & { return c.rpObservedBits; }, 0.0,
                    1e9, true),
        number<Ssd>("ssd.codewordBits",
                    "bits per codeword seen by the decoder",
                    [](Ssd &c) -> auto & { return c.codewordBits; }, 0.0,
                    1e9, true),
        number<Ssd>("ssd.gcFreeBlockThreshold", "GC low watermark per plane",
                    [](Ssd &c) -> auto & { return c.gcFreeBlockThreshold; },
                    1, 1 << 20),
        number<Ssd>("ssd.readDisturbThreshold",
                    "reads since program before relocation (0 disables)",
                    [](Ssd &c) -> auto & { return c.readDisturbThreshold; },
                    0, 0xffffffffu),
        number<Ssd>("ssd.preconditionFill",
                    "fraction of the footprint preconditioned valid",
                    [](Ssd &c) -> auto & { return c.preconditionFill; }, 0.0,
                    1.0),
        number<Ssd>("ssd.seed", "simulation seed",
                    [](Ssd &c) -> auto & { return c.seed; }, 0, ~0ull),

        // --- geometry.* ------------------------------------------------
        number<Ssd>("geometry.channels", "flash channels",
                    [](Ssd &c) -> auto & { return c.geometry.channels; }, 1,
                    1 << 20),
        number<Ssd>("geometry.diesPerChannel", "dies per channel",
                    [](Ssd &c) -> auto & {
                        return c.geometry.diesPerChannel;
                    },
                    1, 1 << 20),
        number<Ssd>("geometry.planesPerDie", "planes per die",
                    [](Ssd &c) -> auto & { return c.geometry.planesPerDie; },
                    1, 1 << 20),
        number<Ssd>("geometry.blocksPerPlane", "blocks per plane",
                    [](Ssd &c) -> auto & {
                        return c.geometry.blocksPerPlane;
                    },
                    1, 1 << 20),
        number<Ssd>("geometry.pagesPerBlock", "pages per block",
                    [](Ssd &c) -> auto & { return c.geometry.pagesPerBlock; },
                    1, 1 << 20),
        number<Ssd>("geometry.pageBytes", "page size in bytes",
                    [](Ssd &c) -> auto & { return c.geometry.pageBytes; },
                    512, 16 * kMiB),
        number<Ssd>("geometry.codewordsPerPage", "ECC codewords per page",
                    [](Ssd &c) -> auto & {
                        return c.geometry.codewordsPerPage;
                    },
                    1, 64),

        // --- nand.* ----------------------------------------------------
        {"nand.cellType",
         "NAND cell type: slc|tlc|qlc (also re-bases the parametric "
         "RBER calibration to the cell's, see cellRberParams)",
         Setter<Ssd>([](Ssd &c, const std::string &v) {
             const auto parsed = nand::parseCellType(v);
             if (!parsed)
                 badValue("nand.cellType", v, "slc|tlc|qlc");
             c.cellType = *parsed;
             c.rber = nand::cellRberParams(*parsed);
         })},
        number<Ssd>("nand.slcBlockFraction",
                    "fraction of each plane's blocks operated in SLC mode",
                    [](Ssd &c) -> auto & { return c.slcBlockFraction; }, 0.0,
                    1.0),
        number<Ssd>("nand.slcRberFactor",
                    "RBER multiplier of SLC-mode blocks vs the native cell",
                    [](Ssd &c) -> auto & { return c.slcRberFactor; }, 0.0,
                    1.0, true),

        // --- rvs.* (host-side VREF-tracking cost model) ----------------
        number<Ssd>("rvs.recharacterizeDays",
                    "days between host VREF re-characterizations",
                    [](Ssd &c) -> auto & {
                        return c.rvsCost.recharacterizeDays;
                    },
                    0.0, 1e5, true),
        number<Ssd>("rvs.samplesPerThreshold",
                    "calibration sample reads per threshold per "
                    "characterization",
                    [](Ssd &c) -> auto & {
                        return c.rvsCost.samplesPerThreshold;
                    },
                    1, 1 << 20),
        number<Ssd>("rvs.sampleReadUs",
                    "cost of one calibration sample read (us)",
                    [](Ssd &c) -> auto & { return c.rvsCost.sampleReadUs; },
                    0.0, 1e6, true),

        // --- timing.* (all in microseconds) ----------------------------
        latencyUs("timing.tR", "page sense latency (us)",
                  [](Ssd &c) -> auto & { return c.timing.tR; }),
        latencyUs("timing.tProg", "page program latency (us)",
                  [](Ssd &c) -> auto & { return c.timing.tProg; }),
        latencyUs("timing.tErase", "block erase latency (us)",
                  [](Ssd &c) -> auto & { return c.timing.tErase; }),
        latencyUs("timing.tDmaPage", "page transfer latency (us)",
                  [](Ssd &c) -> auto & { return c.timing.tDmaPage; }),
        latencyUs("timing.tPred", "on-die RP prediction latency (us)",
                  [](Ssd &c) -> auto & { return c.timing.tPred; }),
        latencyUs("timing.tEccMin", "best-case page decode latency (us)",
                  [](Ssd &c) -> auto & { return c.timing.tEccMin; }),
        latencyUs("timing.tEccMax", "failed decode latency (us)",
                  [](Ssd &c) -> auto & { return c.timing.tEccMax; }),

        // --- run.* -----------------------------------------------------
        number<RunScale>("run.requests", "trace length per run",
                         [](RunScale &s) -> auto & { return s.requests; },
                         1, 1000000000000ull),
        number<RunScale>("run.seed", "trace generator seed",
                         [](RunScale &s) -> auto & { return s.seed; }, 0,
                         ~0ull),

        // --- fleet.* ---------------------------------------------------
        number<Fleet>("fleet.drives", "drives in the fleet",
                      [](Fleet &c) -> auto & { return c.drives; }, 1, 4096),
        {"fleet.placement",
         "page placement across drives: striped|replicated",
         Setter<Fleet>([](Fleet &c, const std::string &v) {
             const auto parsed = fabric::parsePlacement(v);
             if (!parsed)
                 badValue("fleet.placement", v, "striped|replicated");
             c.placement = *parsed;
         })},
        number<Fleet>("fleet.replicas",
                      "copies per chunk under replicated placement",
                      [](Fleet &c) -> auto & { return c.replicas; }, 1, 64),
        number<Fleet>("fleet.stripePages", "placement chunk size in pages",
                      [](Fleet &c) -> auto & { return c.stripePages; }, 1,
                      1 << 20),
        number<Fleet>("fleet.qd", "fleet-wide outstanding host commands",
                      [](Fleet &c) -> auto & { return c.qd; }, 1, 1 << 20),
        number<Fleet>("fleet.linkUs",
                      "one-way interconnect latency per drive (us)",
                      [](Fleet &c) -> auto & { return c.linkUs; }, 0.0, 1e6),
        number<Fleet>("fleet.linkGBps",
                      "per-direction link bandwidth per drive (GB/s)",
                      [](Fleet &c) -> auto & { return c.linkGBps; }, 0.0,
                      1e4, true),
        number<Fleet>("fleet.agedDrives",
                      "drives pinned at fleet.agedPeCycles wear",
                      [](Fleet &c) -> auto & { return c.agedDrives; }, 0,
                      4096),
        number<Fleet>("fleet.agedPeCycles", "P/E cycles of the aged drives",
                      [](Fleet &c) -> auto & { return c.agedPeCycles; }, 0.0,
                      1e7),

        // --- workload.* ------------------------------------------------
        {"workload.trace",
         "block-trace file to replay (empty: synthetic generator)",
         Setter<Workload>(
             [](Workload &c, const std::string &v) { c.trace = v; })},
        {"workload.format", "trace dialect: auto|csv|msr|alibaba",
         Setter<Workload>([](Workload &c, const std::string &v) {
             trace::TraceFormat parsed;
             if (v != "auto" && !trace::parseTraceFormat(v, parsed))
                 badValue("workload.format", v, "auto|csv|msr|alibaba");
             c.format = v;
         })},
        {"workload.arrival", "injection mode: closed|timestamp|poisson",
         Setter<Workload>([](Workload &c, const std::string &v) {
             trace::ArrivalMode parsed;
             if (!trace::parseArrivalMode(v, parsed))
                 badValue("workload.arrival", v,
                          "closed|timestamp|poisson");
             c.arrival = v;
         })},
        number<Workload>("workload.rateKiops",
                         "offered load of the Poisson open loop (kIOPS)",
                         [](Workload &c) -> auto & { return c.rateKiops; },
                         0.0, 1e6, true),
        number<Workload>("workload.queueCap",
                         "bounded host-queue capacity (open loop)",
                         [](Workload &c) -> auto & { return c.queueCap; }, 1,
                         1 << 24),
        number<Workload>("workload.arrivalSeed",
                         "seed of the Poisson arrival process",
                         [](Workload &c) -> auto & { return c.arrivalSeed; },
                         0, ~0ull),
    };
    return f;
}

/** Run `set` once against a scratch default Cfg (fatal on error). */
template <class Cfg>
void
dryRun(const Setter<Cfg> &set, const std::string &value)
{
    Cfg scratch;
    set(scratch, value);
}

/** Replay the `--set`s whose setter targets a Cfg; true if any did. */
template <class Cfg>
bool
replay(const std::vector<std::pair<const OptionField *, std::string>> &sets,
       Cfg &cfg)
{
    bool any = false;
    for (const auto &[field, value] : sets) {
        if (const auto *set = std::get_if<Setter<Cfg>>(&field->set)) {
            (*set)(cfg, value);
            any = true;
        }
    }
    return any;
}

} // namespace

void
OptionSet::addSet(const std::string &key_value)
{
    const auto eq = key_value.find('=');
    if (eq == std::string::npos || eq == 0)
        fatal("--set expects key=value, got '", key_value, "'");
    const std::string key = key_value.substr(0, eq);
    const std::string value = key_value.substr(eq + 1);

    for (const OptionField &field : fields()) {
        if (key != field.key)
            continue;
        // Fail now, before any simulation: run the setter once against
        // a scratch default config.
        std::visit([&value](const auto &set) { dryRun(set, value); },
                   field.set);
        sets_.emplace_back(&field, value);
        return;
    }
    fatal("--set: unknown key '", key,
          "' (see 'rif help set' for the settable keys)");
}

void
OptionSet::setWorkload(const std::string &name)
{
    if (!trace::findWorkload(name)) {
        std::string valid;
        for (const auto &n : trace::workloadNames()) {
            if (!valid.empty())
                valid += ", ";
            valid += n;
        }
        fatal("--workload: unknown workload '", name, "' (valid: ",
              valid, ")");
    }
    workload_ = name;
}

void
OptionSet::applyTo(ssd::SsdConfig &cfg) const
{
    if (replay(sets_, cfg))
        cfg.validate();
}

void
OptionSet::applyTo(RunScale &scale) const
{
    replay(sets_, scale);
}

void
OptionSet::applyTo(fabric::FleetConfig &cfg) const
{
    if (replay(sets_, cfg))
        cfg.validate();
}

void
OptionSet::applyTo(trace::WorkloadConfig &cfg) const
{
    if (replay(sets_, cfg))
        cfg.validate();
}

std::vector<OptionKey>
OptionSet::knownKeys()
{
    std::vector<OptionKey> keys;
    for (const OptionField &field : fields())
        keys.push_back({field.key, field.help});
    return keys;
}

} // namespace core
} // namespace rif
