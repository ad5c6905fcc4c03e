/**
 * @file
 * A rack-scale fleet: N independent Ssd instances behind a modeled
 * host-side interconnect, replaying one host workload through the same
 * HostDriver a bare drive uses (ssd/arrival.h): closed-loop at a
 * fleet-wide queue depth, or open-loop under any ArrivalPolicy. The
 * driver runs on the fleet's host lane and starts each command through
 * placement plus per-drive sub-IO submission. Placement (striping or
 * replication) maps each host command to per-drive sub-IOs; replicated
 * reads pick the least-loaded replica. The simulation is conservative
 * lookahead: each drive advances on its own event lane to a shared
 * horizon bounded by the link latency (no message can cross the
 * interconnect in less than one link delay), so drives only
 * synchronize at interconnect-crossing events. Every fleet, a one-drive
 * fleet included, has a link of at least one tick; a bare Ssd is the
 * way to replay on one drive without one.
 *
 * Each round runs, on the calling thread and in ascending drive index,
 * only the drives with work inside its window (skipping an idle drive
 * is a proven no-op on its kernel); a round is far too short to pay
 * for a pool wake-up. Only preconditioning, once per replay, runs
 * drives in parallel, on the one worker team (common/parallel.h); inside
 * a scenario or a drive sweep that job joins the team as a nested one.
 * Results are bit-identical at any thread count.
 * See DESIGN.md §5i for the protocol and the correctness argument.
 */

#ifndef RIF_FABRIC_FLEET_H
#define RIF_FABRIC_FLEET_H

#include <cstdint>
#include <memory>
#include <vector>

#include "common/pool.h"
#include "common/stats.h"
#include "fabric/config.h"
#include "fabric/interconnect.h"
#include "fabric/placement.h"
#include "ssd/arrival.h"
#include "ssd/ssd.h"
#include "trace/trace.h"

namespace rif {
namespace fabric {

/** Fleet-level results plus every drive's own statistics. */
struct FleetStats
{
    /** Host-observed run length: last command completion arrival. */
    Tick makespan = 0;

    std::uint64_t commands = 0;     ///< host commands completed
    std::uint64_t readCommands = 0;
    std::uint64_t subIos = 0;       ///< per-drive fragments issued
    /** Replicated-read chunks steered away from the primary replica. */
    std::uint64_t replicaReadsBalanced = 0;
    /** Conservative lookahead synchronization rounds. */
    std::uint64_t syncRounds = 0;
    /**
     * Rounds in which at most one drive had work at or before the
     * horizon. A pure function of simulated state — identical at any
     * RIF_THREADS setting.
     */
    std::uint64_t roundsCoalesced = 0;
    /**
     * Simulated ticks drive lanes spent parked at round barriers: for
     * each round, each drive contributes the gap between the round
     * base and its own earliest pending work (the full window when it
     * has none). Measures lookahead skew, deterministically.
     */
    std::uint64_t barrierWaitTicks = 0;
    std::uint64_t driveEvents = 0;  ///< kernel events across all drives
    std::uint64_t hostEvents = 0;   ///< host-side kernel events

    /** Host-observed command latencies (submission to completion
     *  arrival, both interconnect crossings included). */
    PercentileTracker readLatencyUs;
    PercentileTracker writeLatencyUs;

    /** Per-drive statistics, indexed by drive. */
    std::vector<ssd::SsdStats> drives;

    /** Host-observed command throughput over the makespan. */
    double iops() const
    {
        return makespan == 0
                   ? 0.0
                   : static_cast<double>(commands) / ticksToSec(makespan);
    }
};

/** A fleet of SSDs behind one host. */
class Fleet
{
  public:
    /**
     * @param base per-drive SSD configuration; drive i runs it with
     *        seed = driveSeed(base.seed, i) (and, for i < agedDrives,
     *        peCycles = agedPeCycles)
     * @param config the fleet topology/placement/link model
     */
    Fleet(const ssd::SsdConfig &base, const FleetConfig &config);
    ~Fleet();

    Fleet(const Fleet &) = delete;
    Fleet &operator=(const Fleet &) = delete;

    /**
     * Replay `source` closed-loop (up to config.qd outstanding host
     * commands) until it is exhausted and every command has completed
     * back at the host: run(source, ClosedLoopArrival(config.qd)).
     */
    FleetStats run(trace::TraceSource &source);

    /**
     * Replay under an explicit injection policy (see ssd/arrival.h).
     * OpenLoopArrival offers load at the records' arrival ticks with a
     * bounded host queue and drop accounting. Arrival events run on
     * the host lane, so the conservative lookahead rounds are
     * unchanged: a submission at host tick t reaches a drive no
     * earlier than t + linkTicks, past every round horizon.
     */
    FleetStats run(trace::TraceSource &source,
                   ssd::ArrivalPolicy &policy);

    /** Drive i's effective configuration (forked seed, aging). */
    const ssd::SsdConfig &driveConfig(int drive) const;

    const FleetConfig &config() const { return cfg_; }
    const Placement &placement() const { return placement_; }

  private:
    struct Command
    {
        bool isRead = true;
        Tick issued = 0;
        int subsLeft = 0;
    };

    /** The host driver's start callback: place one host command and
     *  submit its sub-IOs, latency measured from `issuedAt`. */
    void startCommand(const trace::IoRecord &rec, Tick issuedAt);
    void submitSub(Command *cmd, const SubIo &sub);
    /** Send one sub-IO completion of `pages` pages, retired by `drive`
     *  at `at`, across its egress link into the host kernel. */
    void deliverCompletion(Command *cmd, int drive, Tick at,
                           std::uint32_t pages);
    void publishFleetMetrics() const;

    ssd::SsdConfig baseCfg_;
    FleetConfig cfg_;
    Placement placement_;
    Interconnect net_;

    std::vector<std::unique_ptr<ssd::SsdConfig>> driveCfgs_;
    std::vector<std::unique_ptr<ssd::Ssd>> drives_;

    /** Host-side event lane (completion arrivals, injection). */
    ssd::Simulator hostSim_;
    /** The replay's host driver on hostSim_ (null outside run()). */
    ssd::HostDriver *host_ = nullptr;

    /** Outstanding sub-IOs per drive (replica steering signal). */
    std::vector<int> driveLoad_;

    ObjectPool<Command> cmdPool_;
    std::vector<SubIo> splitScratch_;
    /** Per-round scratch (allocated once, reused every round): each
     *  drive's event bound. */
    std::vector<Tick> boundScratch_;

    int outstanding_ = 0;
    int outstandingPeak_ = 0;
    Tick lastDone_ = 0;

    FleetStats stats_;
};

} // namespace fabric
} // namespace rif

#endif // RIF_FABRIC_FLEET_H
