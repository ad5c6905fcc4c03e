#include "core/options.h"

#include <charconv>
#include <cmath>
#include <cstdlib>

#include "common/logging.h"
#include "fabric/config.h"
#include "trace/trace.h"
#include "trace/stream.h"
#include "trace/workload.h"

namespace rif {
namespace core {

namespace {

[[noreturn]] void
badValue(const std::string &key, const std::string &value,
         const std::string &expected)
{
    fatal("--set ", key, ": invalid value '", value, "' (expected ",
          expected, ")");
}

long long
parseIntValue(const std::string &key, const std::string &value,
              long long min, long long max)
{
    long long out = 0;
    const auto *begin = value.data();
    const auto *end = value.data() + value.size();
    const auto res = std::from_chars(begin, end, out);
    if (res.ec != std::errc{} || res.ptr != end || out < min || out > max)
        badValue(key, value,
                 "integer in [" + std::to_string(min) + ", " +
                     std::to_string(max) + "]");
    return out;
}

std::uint64_t
parseU64Value(const std::string &key, const std::string &value,
              std::uint64_t min, std::uint64_t max)
{
    std::uint64_t out = 0;
    const auto *begin = value.data();
    const auto *end = value.data() + value.size();
    const auto res = std::from_chars(begin, end, out);
    if (res.ec != std::errc{} || res.ptr != end || out < min || out > max)
        badValue(key, value,
                 "integer in [" + std::to_string(min) + ", " +
                     std::to_string(max) + "]");
    return out;
}

double
parseDoubleValue(const std::string &key, const std::string &value,
                 double min, double max, bool min_exclusive = false)
{
    char *end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    const bool consumed = end != nullptr && *end == '\0' &&
                          end != value.c_str();
    const bool in_range = std::isfinite(v) && v <= max &&
                          (min_exclusive ? v > min : v >= min);
    if (!consumed || !in_range)
        badValue(key, value,
                 std::string("finite number in ") +
                     (min_exclusive ? "(" : "[") + std::to_string(min) +
                     ", " + std::to_string(max) + "]");
    return v;
}

/**
 * One settable field: `make*(value)` parses eagerly (fatal on error)
 * and returns the closure that applies the parsed value later, so a
 * bad `--set` fails before any simulation starts.
 */
struct Field
{
    const char *key;
    const char *help;
    std::function<std::function<void(ssd::SsdConfig &)>(
        const std::string &)>
        makeSsd;
    std::function<std::function<void(RunScale &)>(const std::string &)>
        makeRun;
    std::function<
        std::function<void(fabric::FleetConfig &)>(const std::string &)>
        makeFleet;
    std::function<std::function<void(trace::WorkloadConfig &)>(
        const std::string &)>
        makeWorkload;
};

std::vector<Field>
makeFields()
{
    std::vector<Field> f;

    auto addInt = [&f](const char *key, const char *help,
                       void (*set)(ssd::SsdConfig &, long long),
                       long long min, long long max) {
        f.push_back(
            {key, help,
             [key, set, min, max](const std::string &v) {
                 const long long parsed =
                     parseIntValue(key, v, min, max);
                 return [set, parsed](ssd::SsdConfig &c) {
                     set(c, parsed);
                 };
             },
             nullptr});
    };
    auto addU64 = [&f](const char *key, const char *help,
                       void (*set)(ssd::SsdConfig &, std::uint64_t),
                       std::uint64_t min, std::uint64_t max) {
        f.push_back(
            {key, help,
             [key, set, min, max](const std::string &v) {
                 const std::uint64_t parsed =
                     parseU64Value(key, v, min, max);
                 return [set, parsed](ssd::SsdConfig &c) {
                     set(c, parsed);
                 };
             },
             nullptr});
    };
    auto addDouble = [&f](const char *key, const char *help,
                          void (*set)(ssd::SsdConfig &, double),
                          double min, double max,
                          bool min_exclusive = false) {
        f.push_back(
            {key, help,
             [key, set, min, max, min_exclusive](const std::string &v) {
                 const double parsed =
                     parseDoubleValue(key, v, min, max, min_exclusive);
                 return [set, parsed](ssd::SsdConfig &c) {
                     set(c, parsed);
                 };
             },
             nullptr});
    };

    // --- ssd.* ---------------------------------------------------------
    f.push_back(
        {"ssd.policy",
         "read-retry policy: SSDzero|CONV|SSDone|SENC|SWR|SWR+|RPSSD|"
         "RiFSSD",
         [](const std::string &v) {
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
             return [kind = *parsed](ssd::SsdConfig &c) {
                 c.policy = kind;
             };
         },
         nullptr});
    addDouble("ssd.hostGBps", "host interface peak bandwidth (GB/s)",
              [](ssd::SsdConfig &c, double v) { c.hostGBps = v; }, 0.0,
              1e4, true);
    addInt("ssd.queueDepth", "closed-loop outstanding host requests",
           [](ssd::SsdConfig &c, long long v) {
               c.queueDepth = static_cast<int>(v);
           },
           1, 65536);
    addInt("ssd.eccBufferPages",
           "pages buffered ahead of the ECC engine per channel",
           [](ssd::SsdConfig &c, long long v) {
               c.eccBufferPages = static_cast<int>(v);
           },
           1, 4096);
    addDouble("ssd.peCycles", "P/E cycles experienced by every block",
              [](ssd::SsdConfig &c, double v) { c.peCycles = v; }, 0.0,
              1e7);
    addDouble("ssd.refreshDays", "periodic refresh window (days)",
              [](ssd::SsdConfig &c, double v) { c.refreshDays = v; },
              0.0, 1e5, true);
    addDouble("ssd.coldAgeMinDays", "lower bound of cold-data age (days)",
              [](ssd::SsdConfig &c, double v) { c.coldAgeMinDays = v; },
              0.0, 1e5);
    addDouble("ssd.hotAgeDays", "initial age bound of hot data (days)",
              [](ssd::SsdConfig &c, double v) { c.hotAgeDays = v; }, 0.0,
              1e5);
    addDouble("ssd.sentinelExtraReadProb",
              "SENC extra sentinel-read probability",
              [](ssd::SsdConfig &c, double v) {
                  c.sentinelExtraReadProb = v;
              },
              0.0, 1.0);
    addDouble("ssd.vrefTrackedFraction",
              "SWR+ fraction of reads with pre-optimized VREF",
              [](ssd::SsdConfig &c, double v) {
                  c.vrefTrackedFraction = v;
              },
              0.0, 1.0);
    addDouble("ssd.tPredController",
              "controller-side RP latency (us, RPSSD)",
              [](ssd::SsdConfig &c, double v) {
                  c.tPredController = usToTicks(v);
              },
              0.0, 1e6);
    addDouble("ssd.seqStepFactor",
              "RBER multiplier per conventional VREF step",
              [](ssd::SsdConfig &c, double v) { c.seqStepFactor = v; },
              0.0, 1.0, true);
    addInt("ssd.maxRetrySteps",
           "max VREF steps of the conventional sequence",
           [](ssd::SsdConfig &c, long long v) {
               c.maxRetrySteps = static_cast<int>(v);
           },
           1, 64);
    addDouble("ssd.rpObservedBits",
              "effective bits observed by the RP predictor",
              [](ssd::SsdConfig &c, double v) { c.rpObservedBits = v; },
              0.0, 1e9, true);
    addDouble("ssd.codewordBits", "bits per codeword seen by the decoder",
              [](ssd::SsdConfig &c, double v) { c.codewordBits = v; },
              0.0, 1e9, true);
    addInt("ssd.gcFreeBlockThreshold", "GC low watermark per plane",
           [](ssd::SsdConfig &c, long long v) {
               c.gcFreeBlockThreshold = static_cast<int>(v);
           },
           1, 1 << 20);
    addU64("ssd.readDisturbThreshold",
           "reads since program before relocation (0 disables)",
           [](ssd::SsdConfig &c, std::uint64_t v) {
               c.readDisturbThreshold = static_cast<std::uint32_t>(v);
           },
           0, 0xffffffffull);
    addDouble("ssd.preconditionFill",
              "fraction of the footprint preconditioned valid",
              [](ssd::SsdConfig &c, double v) {
                  c.preconditionFill = v;
              },
              0.0, 1.0);
    addU64("ssd.seed", "simulation seed",
           [](ssd::SsdConfig &c, std::uint64_t v) { c.seed = v; }, 0,
           ~0ull);

    // --- geometry.* ----------------------------------------------------
    addInt("geometry.channels", "flash channels",
           [](ssd::SsdConfig &c, long long v) {
               c.geometry.channels = static_cast<int>(v);
           },
           1, 1 << 20);
    addInt("geometry.diesPerChannel", "dies per channel",
           [](ssd::SsdConfig &c, long long v) {
               c.geometry.diesPerChannel = static_cast<int>(v);
           },
           1, 1 << 20);
    addInt("geometry.planesPerDie", "planes per die",
           [](ssd::SsdConfig &c, long long v) {
               c.geometry.planesPerDie = static_cast<int>(v);
           },
           1, 1 << 20);
    addInt("geometry.blocksPerPlane", "blocks per plane",
           [](ssd::SsdConfig &c, long long v) {
               c.geometry.blocksPerPlane = static_cast<int>(v);
           },
           1, 1 << 20);
    addInt("geometry.pagesPerBlock", "pages per block",
           [](ssd::SsdConfig &c, long long v) {
               c.geometry.pagesPerBlock = static_cast<int>(v);
           },
           1, 1 << 20);
    addU64("geometry.pageBytes", "page size in bytes",
           [](ssd::SsdConfig &c, std::uint64_t v) {
               c.geometry.pageBytes = v;
           },
           512, 16 * kMiB);
    addInt("geometry.codewordsPerPage", "ECC codewords per page",
           [](ssd::SsdConfig &c, long long v) {
               c.geometry.codewordsPerPage = static_cast<int>(v);
           },
           1, 64);

    // --- nand.* --------------------------------------------------------
    f.push_back(
        {"nand.cellType",
         "NAND cell type: slc|tlc|qlc (also re-bases the parametric "
         "RBER calibration to the cell's, see cellRberParams)",
         [](const std::string &v) {
             const auto parsed = nand::parseCellType(v);
             if (!parsed)
                 badValue("nand.cellType", v, "slc|tlc|qlc");
             return [cell = *parsed](ssd::SsdConfig &c) {
                 c.cellType = cell;
                 c.rber = nand::cellRberParams(cell);
             };
         },
         nullptr});
    addDouble("nand.slcBlockFraction",
              "fraction of each plane's blocks operated in SLC mode",
              [](ssd::SsdConfig &c, double v) {
                  c.slcBlockFraction = v;
              },
              0.0, 1.0);
    addDouble("nand.slcRberFactor",
              "RBER multiplier of SLC-mode blocks vs the native cell",
              [](ssd::SsdConfig &c, double v) { c.slcRberFactor = v; },
              0.0, 1.0, true);

    // --- rvs.* (host-side VREF-tracking cost model) --------------------
    addDouble("rvs.recharacterizeDays",
              "days between host VREF re-characterizations",
              [](ssd::SsdConfig &c, double v) {
                  c.rvsCost.recharacterizeDays = v;
              },
              0.0, 1e5, true);
    addInt("rvs.samplesPerThreshold",
           "calibration sample reads per threshold per characterization",
           [](ssd::SsdConfig &c, long long v) {
               c.rvsCost.samplesPerThreshold = static_cast<int>(v);
           },
           1, 1 << 20);
    addDouble("rvs.sampleReadUs",
              "cost of one calibration sample read (us)",
              [](ssd::SsdConfig &c, double v) {
                  c.rvsCost.sampleReadUs = v;
              },
              0.0, 1e6, true);

    // --- timing.* (all in microseconds) --------------------------------
    auto addTiming = [&addDouble](const char *key, const char *help,
                                  void (*set)(ssd::SsdConfig &, double)) {
        addDouble(key, help, set, 0.0, 1e6);
    };
    addTiming("timing.tR", "page sense latency (us)",
              [](ssd::SsdConfig &c, double v) {
                  c.timing.tR = usToTicks(v);
              });
    addTiming("timing.tProg", "page program latency (us)",
              [](ssd::SsdConfig &c, double v) {
                  c.timing.tProg = usToTicks(v);
              });
    addTiming("timing.tErase", "block erase latency (us)",
              [](ssd::SsdConfig &c, double v) {
                  c.timing.tErase = usToTicks(v);
              });
    addTiming("timing.tDmaPage", "page transfer latency (us)",
              [](ssd::SsdConfig &c, double v) {
                  c.timing.tDmaPage = usToTicks(v);
              });
    addTiming("timing.tPred", "on-die RP prediction latency (us)",
              [](ssd::SsdConfig &c, double v) {
                  c.timing.tPred = usToTicks(v);
              });
    addTiming("timing.tEccMin", "best-case page decode latency (us)",
              [](ssd::SsdConfig &c, double v) {
                  c.timing.tEccMin = usToTicks(v);
              });
    addTiming("timing.tEccMax", "failed decode latency (us)",
              [](ssd::SsdConfig &c, double v) {
                  c.timing.tEccMax = usToTicks(v);
              });

    // --- run.* ---------------------------------------------------------
    f.push_back({"run.requests", "trace length per run",
                 nullptr,
                 [](const std::string &v) {
                     const std::uint64_t parsed = parseU64Value(
                         "run.requests", v, 1, 1000000000000ull);
                     return [parsed](RunScale &s) {
                         s.requests = parsed;
                     };
                 }});
    f.push_back({"run.seed", "trace generator seed",
                 nullptr,
                 [](const std::string &v) {
                     const std::uint64_t parsed =
                         parseU64Value("run.seed", v, 0, ~0ull);
                     return [parsed](RunScale &s) { s.seed = parsed; };
                 }});

    // --- fleet.* -------------------------------------------------------
    auto addFleetInt = [&f](const char *key, const char *help,
                            void (*set)(fabric::FleetConfig &, long long),
                            long long min, long long max) {
        f.push_back({key, help, nullptr, nullptr,
                     [key, set, min, max](const std::string &v) {
                         const long long parsed =
                             parseIntValue(key, v, min, max);
                         return [set, parsed](fabric::FleetConfig &c) {
                             set(c, parsed);
                         };
                     }});
    };
    auto addFleetDouble = [&f](const char *key, const char *help,
                               void (*set)(fabric::FleetConfig &, double),
                               double min, double max,
                               bool min_exclusive = false) {
        f.push_back(
            {key, help, nullptr, nullptr,
             [key, set, min, max, min_exclusive](const std::string &v) {
                 const double parsed =
                     parseDoubleValue(key, v, min, max, min_exclusive);
                 return [set, parsed](fabric::FleetConfig &c) {
                     set(c, parsed);
                 };
             }});
    };
    addFleetInt("fleet.drives", "drives in the fleet",
                [](fabric::FleetConfig &c, long long v) {
                    c.drives = static_cast<int>(v);
                },
                1, 4096);
    f.push_back({"fleet.placement",
                 "page placement across drives: striped|replicated",
                 nullptr, nullptr,
                 [](const std::string &v) {
                     const auto parsed = fabric::parsePlacement(v);
                     if (!parsed)
                         badValue("fleet.placement", v,
                                  "striped|replicated");
                     return [kind = *parsed](fabric::FleetConfig &c) {
                         c.placement = kind;
                     };
                 }});
    addFleetInt("fleet.replicas",
                "copies per chunk under replicated placement",
                [](fabric::FleetConfig &c, long long v) {
                    c.replicas = static_cast<int>(v);
                },
                1, 64);
    addFleetInt("fleet.stripePages", "placement chunk size in pages",
                [](fabric::FleetConfig &c, long long v) {
                    c.stripePages = static_cast<std::uint32_t>(v);
                },
                1, 1 << 20);
    addFleetInt("fleet.qd", "fleet-wide outstanding host commands",
                [](fabric::FleetConfig &c, long long v) {
                    c.qd = static_cast<int>(v);
                },
                1, 1 << 20);
    addFleetDouble("fleet.linkUs",
                   "one-way interconnect latency per drive (us)",
                   [](fabric::FleetConfig &c, double v) { c.linkUs = v; },
                   0.0, 1e6);
    addFleetDouble("fleet.linkGBps",
                   "per-direction link bandwidth per drive (GB/s)",
                   [](fabric::FleetConfig &c, double v) {
                       c.linkGBps = v;
                   },
                   0.0, 1e4, true);
    addFleetInt("fleet.agedDrives",
                "drives pinned at fleet.agedPeCycles wear",
                [](fabric::FleetConfig &c, long long v) {
                    c.agedDrives = static_cast<int>(v);
                },
                0, 4096);
    addFleetDouble("fleet.agedPeCycles",
                   "P/E cycles of the aged drives",
                   [](fabric::FleetConfig &c, double v) {
                       c.agedPeCycles = v;
                   },
                   0.0, 1e7);

    // --- workload.* ----------------------------------------------------
    f.push_back({"workload.trace",
                 "block-trace file to replay (empty: synthetic "
                 "generator)",
                 nullptr, nullptr, nullptr,
                 [](const std::string &v) {
                     return [v](trace::WorkloadConfig &c) {
                         c.trace = v;
                     };
                 }});
    f.push_back({"workload.format",
                 "trace dialect: auto|csv|msr|alibaba",
                 nullptr, nullptr, nullptr,
                 [](const std::string &v) {
                     trace::TraceFormat parsed;
                     if (v != "auto" &&
                         !trace::parseTraceFormat(v, parsed))
                         badValue("workload.format", v,
                                  "auto|csv|msr|alibaba");
                     return [v](trace::WorkloadConfig &c) {
                         c.format = v;
                     };
                 }});
    f.push_back({"workload.arrival",
                 "injection mode: closed|timestamp|poisson",
                 nullptr, nullptr, nullptr,
                 [](const std::string &v) {
                     trace::ArrivalMode parsed;
                     if (!trace::parseArrivalMode(v, parsed))
                         badValue("workload.arrival", v,
                                  "closed|timestamp|poisson");
                     return [v](trace::WorkloadConfig &c) {
                         c.arrival = v;
                     };
                 }});
    f.push_back({"workload.rateKiops",
                 "offered load of the Poisson open loop (kIOPS)",
                 nullptr, nullptr, nullptr,
                 [](const std::string &v) {
                     const double parsed = parseDoubleValue(
                         "workload.rateKiops", v, 0.0, 1e6, true);
                     return [parsed](trace::WorkloadConfig &c) {
                         c.rateKiops = parsed;
                     };
                 }});
    f.push_back({"workload.queueCap",
                 "bounded host-queue capacity (open loop)",
                 nullptr, nullptr, nullptr,
                 [](const std::string &v) {
                     const long long parsed = parseIntValue(
                         "workload.queueCap", v, 1, 1 << 24);
                     return [parsed](trace::WorkloadConfig &c) {
                         c.queueCap = static_cast<int>(parsed);
                     };
                 }});
    f.push_back({"workload.arrivalSeed",
                 "seed of the Poisson arrival process",
                 nullptr, nullptr, nullptr,
                 [](const std::string &v) {
                     const std::uint64_t parsed = parseU64Value(
                         "workload.arrivalSeed", v, 0, ~0ull);
                     return [parsed](trace::WorkloadConfig &c) {
                         c.arrivalSeed = parsed;
                     };
                 }});

    return f;
}

const std::vector<Field> &
fields()
{
    static const std::vector<Field> f = makeFields();
    return f;
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

    for (const Field &field : fields()) {
        if (key != field.key)
            continue;
        if (field.makeSsd)
            ssdOps_.push_back(field.makeSsd(value));
        else if (field.makeFleet)
            fleetOps_.push_back(field.makeFleet(value));
        else if (field.makeWorkload)
            workloadOps_.push_back(field.makeWorkload(value));
        else
            runOps_.push_back(field.makeRun(value));
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
    for (const auto &op : ssdOps_)
        op(cfg);
    if (!ssdOps_.empty())
        cfg.validate();
}

void
OptionSet::applyTo(RunScale &scale) const
{
    for (const auto &op : runOps_)
        op(scale);
}

void
OptionSet::applyTo(fabric::FleetConfig &cfg) const
{
    for (const auto &op : fleetOps_)
        op(cfg);
    if (!fleetOps_.empty())
        cfg.validate();
}

void
OptionSet::applyTo(trace::WorkloadConfig &cfg) const
{
    for (const auto &op : workloadOps_)
        op(cfg);
    if (!workloadOps_.empty())
        cfg.validate();
}

std::vector<OptionKey>
OptionSet::knownKeys()
{
    std::vector<OptionKey> keys;
    for (const Field &field : fields())
        keys.push_back({field.key, field.help});
    return keys;
}

} // namespace core
} // namespace rif
