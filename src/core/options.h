/**
 * @file
 * Layered configuration overrides for the scenario driver. Every
 * interesting SsdConfig / geometry / timing / RunScale field is
 * addressable by a dotted key (`--set ssd.queueDepth=128`,
 * `--set timing.tR=45`, `--set run.requests=2000`); values are parsed
 * with the field's type and domain at option-parse time, so an unknown
 * key or a nonsense value fails loudly before any simulation starts.
 * Numbers are parsed strictly (parseNumber): plain decimal only, so a
 * leading blank, a '+' sign, hex or trailing text is rejected for
 * doubles exactly as for integers. Overrides are applied *after* a
 * scenario sets its own defaults — scenario < command line — and
 * re-validated via SsdConfig::validate().
 */

#ifndef RIF_CORE_OPTIONS_H
#define RIF_CORE_OPTIONS_H

#include <charconv>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/experiment.h"
#include "ssd/config.h"

namespace rif {

namespace fabric {
struct FleetConfig;
} // namespace fabric

namespace trace {
struct WorkloadConfig;
} // namespace trace

namespace core {

/**
 * Parse all of `text` as a T with std::from_chars: decimal digits, an
 * optional '-', and for floating point a fraction and exponent (plus
 * `inf`/`nan`, which callers reject by domain). Anything else — blanks,
 * '+', hex, trailing characters, overflow — yields nullopt. The one
 * number parser of every CLI surface (`--set`, `--scale`, `--jobs`).
 */
template <class T>
std::optional<T>
parseNumber(std::string_view text)
{
    T out{};
    const char *end = text.data() + text.size();
    const auto res = std::from_chars(text.data(), end, out);
    if (res.ec != std::errc{} || res.ptr != end)
        return std::nullopt;
    return out;
}

/** One settable key and its help string, for `rif help set`. */
struct OptionKey
{
    const char *key;
    const char *help;
};

/** One `--set` descriptor (defined in options.cc). */
struct OptionField;

/** A validated batch of `--set` / `--workload` overrides. */
class OptionSet
{
  public:
    /**
     * Parse one `section.key=value` override. Unknown keys, malformed
     * input and out-of-domain values are fatal with a message naming
     * the key and its expected domain.
     */
    void addSet(const std::string &key_value);

    /** Record a `--workload` override (fatal on unknown names). */
    void setWorkload(const std::string &name);

    /** The `--workload` override, if any. */
    const std::optional<std::string> &workload() const
    {
        return workload_;
    }

    /**
     * Apply the ssd.* / geometry.* / timing.* overrides in command-line
     * order (later wins) and validate the result.
     */
    void applyTo(ssd::SsdConfig &cfg) const;

    /** Apply the run.* overrides in command-line order. */
    void applyTo(RunScale &scale) const;

    /** Apply the fleet.* overrides in command-line order and validate. */
    void applyTo(fabric::FleetConfig &cfg) const;

    /** Apply the workload.* overrides in command-line order and
     *  validate. */
    void applyTo(trace::WorkloadConfig &cfg) const;

    bool empty() const { return sets_.empty() && !workload_; }

    /** Every recognized `--set` key, in listing order. */
    static std::vector<OptionKey> knownKeys();

  private:
    /** Every `--set` in command-line order: its field and raw value. */
    std::vector<std::pair<const OptionField *, std::string>> sets_;
    std::optional<std::string> workload_;
};

} // namespace core
} // namespace rif

#endif // RIF_CORE_OPTIONS_H
