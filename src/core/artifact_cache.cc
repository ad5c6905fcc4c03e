#include "core/artifact_cache.h"

#include <unistd.h>

#include <cstring>
#include <filesystem>
#include <fstream>

#include "common/logging.h"
#include "common/metrics.h"
#include "ldpc/decoder.h"
#include "ssd/snapshot_cache.h"

namespace rif {
namespace core {

namespace {

/** Bump on any change to key contents or payload encodings. */
constexpr std::uint32_t kArtifactSchema = 1;

constexpr char kDiskMagic[4] = {'R', 'I', 'F', 'A'};

void
putU64(std::vector<std::uint8_t> &out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

bool
getU64(const std::vector<std::uint8_t> &in, std::size_t &at,
       std::uint64_t &v)
{
    if (at + 8 > in.size())
        return false;
    v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(in[at + i]) << (8 * i);
    at += 8;
    return true;
}

/** Doubles round-trip by bit pattern: cache hits are bit-exact. */
void
putF64(std::vector<std::uint8_t> &out, double v)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof(bits));
    putU64(out, bits);
}

bool
getF64(const std::vector<std::uint8_t> &in, std::size_t &at, double &v)
{
    std::uint64_t bits = 0;
    if (!getU64(in, at, bits))
        return false;
    std::memcpy(&v, &bits, sizeof(v));
    return true;
}

void
addCodeParams(Hasher &h, const ldpc::CodeParams &p)
{
    h.add(p.blockRows);
    h.add(p.blockCols);
    h.add(p.circulant);
    h.add(p.seed);
}

void
encodeU64(const std::uint64_t &v, std::vector<std::uint8_t> &out)
{
    putU64(out, v);
}

bool
decodeU64(const std::vector<std::uint8_t> &in, std::uint64_t &v)
{
    std::size_t at = 0;
    return getU64(in, at, v) && at == in.size();
}

void
encodeDoubles(const std::vector<double> &v, std::vector<std::uint8_t> &out)
{
    putU64(out, v.size());
    for (double d : v)
        putF64(out, d);
}

bool
decodeDoubles(const std::vector<std::uint8_t> &in, std::vector<double> &v)
{
    std::size_t at = 0;
    std::uint64_t n = 0;
    if (!getU64(in, at, n))
        return false;
    v.assign(n, 0.0);
    for (auto &d : v)
        if (!getF64(in, at, d))
            return false;
    return at == in.size();
}

void
encodeCapability(const std::vector<ldpc::CapabilityPoint> &v,
                 std::vector<std::uint8_t> &out)
{
    putU64(out, v.size());
    for (const auto &p : v) {
        putF64(out, p.rber);
        putF64(out, p.failureProbability);
        putF64(out, p.avgIterations);
        putF64(out, p.avgSyndromeWeight);
        putF64(out, p.avgPrunedSyndromeWeight);
    }
}

bool
decodeCapability(const std::vector<std::uint8_t> &in,
                 std::vector<ldpc::CapabilityPoint> &v)
{
    std::size_t at = 0;
    std::uint64_t n = 0;
    if (!getU64(in, at, n))
        return false;
    v.assign(n, {});
    for (auto &p : v) {
        if (!getF64(in, at, p.rber) ||
            !getF64(in, at, p.failureProbability) ||
            !getF64(in, at, p.avgIterations) ||
            !getF64(in, at, p.avgSyndromeWeight) ||
            !getF64(in, at, p.avgPrunedSyndromeWeight))
            return false;
    }
    return at == in.size();
}

void
encodeAccuracy(const std::vector<odear::AccuracyPoint> &v,
               std::vector<std::uint8_t> &out)
{
    putU64(out, v.size());
    for (const auto &p : v) {
        putF64(out, p.rber);
        putF64(out, p.accuracy);
        putF64(out, p.falseRetryRate);
        putF64(out, p.missRate);
        putF64(out, p.decodeFailureRate);
    }
}

bool
decodeAccuracy(const std::vector<std::uint8_t> &in,
               std::vector<odear::AccuracyPoint> &v)
{
    std::size_t at = 0;
    std::uint64_t n = 0;
    if (!getU64(in, at, n))
        return false;
    v.assign(n, {});
    for (auto &p : v) {
        if (!getF64(in, at, p.rber) || !getF64(in, at, p.accuracy) ||
            !getF64(in, at, p.falseRetryRate) ||
            !getF64(in, at, p.missRate) ||
            !getF64(in, at, p.decodeFailureRate))
            return false;
    }
    return at == in.size();
}

} // namespace

ArtifactCache &
ArtifactCache::instance()
{
    static ArtifactCache cache;
    return cache;
}

namespace {

const metrics::Counter mArtifactHits{
    "cache.artifact.hits", "ops", "in-memory artifact cache hits"};
const metrics::Counter mArtifactMisses{
    "cache.artifact.misses", "ops", "artifact cache misses (rebuilds)"};
const metrics::Counter mArtifactDiskHits{
    "cache.artifact.disk_hits", "ops", "artifacts loaded from --cache-dir"};

} // namespace

void
ArtifactCache::noteHit()
{
    hits_.fetch_add(1, std::memory_order_relaxed);
    mArtifactHits.inc();
}

void
ArtifactCache::noteMiss()
{
    misses_.fetch_add(1, std::memory_order_relaxed);
    mArtifactMisses.inc();
}

void
ArtifactCache::noteDiskHit()
{
    diskHits_.fetch_add(1, std::memory_order_relaxed);
    mArtifactDiskHits.inc();
}

void
ArtifactCache::setEnabled(bool enabled)
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        enabled_ = enabled;
    }
    ssd::FtlSnapshotCache::instance().setEnabled(enabled);
}

bool
ArtifactCache::enabled() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return enabled_;
}

void
ArtifactCache::setDiskDir(const std::string &dir)
{
    if (!dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(dir, ec);
        if (ec)
            fatal("cannot create cache directory '", dir, "': ",
                  ec.message());
    }
    std::unique_lock<std::mutex> lock(mutex_);
    diskDir_ = dir;
}

std::string
ArtifactCache::diskDir() const
{
    std::unique_lock<std::mutex> lock(mutex_);
    return diskDir_;
}

void
ArtifactCache::clear()
{
    {
        std::unique_lock<std::mutex> lock(mutex_);
        entries_.clear();
    }
    ssd::FtlSnapshotCache::instance().clear();
}

std::string
ArtifactCache::diskPath(const char *kind, const CacheKey &key) const
{
    const std::string dir = diskDir();
    if (dir.empty())
        return {};
    return dir + "/" + kind + "-" + key.hex() + ".rifa";
}

std::shared_ptr<ArtifactCache::Entry>
ArtifactCache::entryFor(const CacheKey &key)
{
    std::unique_lock<std::mutex> lock(mutex_);
    auto &slot = entries_[key];
    if (!slot)
        slot = std::make_shared<Entry>();
    return slot;
}

bool
ArtifactCache::readDisk(const char *kind, const CacheKey &key,
                        std::vector<std::uint8_t> &payload) const
{
    const std::string path = diskPath(kind, key);
    if (path.empty())
        return false;
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    char magic[4] = {};
    std::uint32_t schema = 0;
    std::uint64_t size = 0;
    in.read(magic, sizeof(magic));
    in.read(reinterpret_cast<char *>(&schema), sizeof(schema));
    in.read(reinterpret_cast<char *>(&size), sizeof(size));
    if (!in || std::memcmp(magic, kDiskMagic, sizeof(magic)) != 0 ||
        schema != kArtifactSchema)
        return false;
    // Cap the trusted size header at 1 GiB: a corrupt file must not
    // translate into an arbitrary allocation.
    if (size > (std::uint64_t{1} << 30))
        return false;
    payload.resize(static_cast<std::size_t>(size));
    in.read(reinterpret_cast<char *>(payload.data()),
            static_cast<std::streamsize>(size));
    return static_cast<bool>(in) &&
           in.peek() == std::ifstream::traits_type::eof();
}

void
ArtifactCache::writeDisk(const char *kind, const CacheKey &key,
                         const std::vector<std::uint8_t> &payload) const
{
    const std::string path = diskPath(kind, key);
    if (path.empty())
        return;
    // tmp + rename: readers never observe a half-written entry, even
    // with concurrent rif invocations sharing one --cache-dir.
    const std::string tmp =
        path + ".tmp." + std::to_string(::getpid());
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        if (!out) {
            warn("cannot write cache file '", tmp, "'");
            return;
        }
        const std::uint64_t size = payload.size();
        out.write(kDiskMagic, sizeof(kDiskMagic));
        out.write(reinterpret_cast<const char *>(&kArtifactSchema),
                  sizeof(kArtifactSchema));
        out.write(reinterpret_cast<const char *>(&size), sizeof(size));
        out.write(reinterpret_cast<const char *>(payload.data()),
                  static_cast<std::streamsize>(payload.size()));
        if (!out) {
            warn("short write to cache file '", tmp, "'");
            return;
        }
    }
    std::error_code ec;
    std::filesystem::rename(tmp, path, ec);
    if (ec) {
        warn("cannot publish cache file '", path, "': ", ec.message());
        std::filesystem::remove(tmp, ec);
    }
}

Hasher
artifactHasher(const char *kind)
{
    Hasher h;
    h.add(kind);
    h.add(kArtifactSchema);
    return h;
}

std::shared_ptr<const ldpc::QcLdpcCode>
cachedCode(const ldpc::CodeParams &params)
{
    Hasher h = artifactHasher("qc-code");
    addCodeParams(h, params);
    return ArtifactCache::instance().getOrBuild<ldpc::QcLdpcCode>(
        "qc-code", h.finish(),
        [&params] { return ldpc::QcLdpcCode(params); });
}

std::size_t
cachedRpThreshold(const ldpc::QcLdpcCode &code,
                  const odear::RpConfig &config, double capability_rber,
                  int trials, std::uint64_t seed)
{
    Hasher h = artifactHasher("rp-threshold");
    addCodeParams(h, code.params());
    h.add(config.useChunk);
    h.add(config.usePruning);
    h.add(config.chunkIndex);
    h.add(capability_rber);
    h.add(trials);
    h.add(seed);
    const auto value =
        ArtifactCache::instance().getOrBuild<std::uint64_t>(
            "rp-threshold", h.finish(),
            [&] {
                return static_cast<std::uint64_t>(
                    odear::RpModule::calibrateThreshold(
                        code, config, capability_rber, trials, seed));
            },
            encodeU64, decodeU64);
    return static_cast<std::size_t>(*value);
}

std::shared_ptr<const std::vector<ldpc::CapabilityPoint>>
cachedCapabilitySweep(const ldpc::QcLdpcCode &code, int decoder_iters,
                      const ldpc::CapabilitySweepConfig &config)
{
    Hasher h = artifactHasher("capability-sweep");
    addCodeParams(h, code.params());
    h.add(decoder_iters);
    h.add(config.rbers.size());
    for (double r : config.rbers)
        h.add(r);
    h.add(config.trials);
    h.add(config.seed);
    return ArtifactCache::instance()
        .getOrBuild<std::vector<ldpc::CapabilityPoint>>(
            "capability-sweep", h.finish(),
            [&] {
                const ldpc::MinSumDecoder decoder(code, decoder_iters);
                return ldpc::measureCapability(code, decoder, config);
            },
            encodeCapability, decodeCapability);
}

std::shared_ptr<const std::vector<odear::AccuracyPoint>>
cachedRpAccuracySweep(const ldpc::QcLdpcCode &code,
                      const odear::RpConfig &config, int decoder_iters,
                      const odear::AccuracySweepConfig &sweep)
{
    Hasher h = artifactHasher("rp-accuracy");
    addCodeParams(h, code.params());
    h.add(config.useChunk);
    h.add(config.usePruning);
    h.add(config.rhoS); // input here, unlike calibration
    h.add(config.chunkIndex);
    h.add(decoder_iters);
    h.add(sweep.rbers.size());
    for (double r : sweep.rbers)
        h.add(r);
    h.add(sweep.trials);
    h.add(sweep.seed);
    return ArtifactCache::instance()
        .getOrBuild<std::vector<odear::AccuracyPoint>>(
            "rp-accuracy", h.finish(),
            [&] {
                const odear::RpModule rp(code, config);
                const ldpc::MinSumDecoder decoder(code, decoder_iters);
                return odear::measureRpAccuracy(code, rp, decoder,
                                                sweep);
            },
            encodeAccuracy, decodeAccuracy);
}

std::shared_ptr<const std::vector<double>>
cachedRetentionThresholds(const nand::RberModel &model,
                          const nand::BlockPopulation &population,
                          const nand::CharacterizationConfig &config,
                          double pe)
{
    Hasher h = artifactHasher("retention-thresholds");
    nand::hashRberParams(h, model.params());
    h.add(config.chips);
    h.add(config.blocksPerChip);
    h.add(config.chipSigma);
    h.add(config.seed);
    h.add(pe);
    return ArtifactCache::instance().getOrBuild<std::vector<double>>(
        "retention-thresholds", h.finish(),
        [&] { return population.retentionThresholds(pe); },
        encodeDoubles, decodeDoubles);
}

} // namespace core
} // namespace rif
