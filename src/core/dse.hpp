/**
 * @file
 * Design-space exploration driver — the workflow the paper's §IX
 * motivates (a latency-optimal design is rarely the energy- or
 * EdP-optimal one, and v3's full-system metrics change the winner).
 * Sweeps array size x dataflow x on-chip memory, collects latency /
 * energy / EdP per design, and extracts the latency-energy Pareto
 * frontier.
 */

#ifndef SCALESIM_CORE_DSE_HH
#define SCALESIM_CORE_DSE_HH

#include <functional>
#include <iosfwd>
#include <vector>

#include "core/simulator.hpp"

namespace scalesim::core
{

/** One evaluated design point. */
struct DsePoint
{
    std::uint32_t array = 32;
    Dataflow dataflow = Dataflow::OutputStationary;
    std::uint64_t sramKb = 512; ///< total on-chip SRAM

    Cycle cycles = 0;
    double energyMj = 0.0;
    double edp = 0.0;

    /** True if `other` is at least as good on both axes and better
     *  on one (latency-energy dominance). */
    bool
    dominatedBy(const DsePoint& other) const
    {
        const bool no_worse = other.cycles <= cycles
            && other.energyMj <= energyMj;
        const bool better = other.cycles < cycles
            || other.energyMj < energyMj;
        return no_worse && better;
    }
};

/**
 * 2:1:1 ifmap:filter:ofmap partition of a total SRAM budget. Integer
 * division drops the remainder KB (a 6 KB budget would sweep as
 * 3+1+1 = 5 KB, mislabeling the point); the remainder is assigned to
 * the ifmap partition so the three parts always sum to `totalKb`.
 */
struct SramSplit
{
    std::uint64_t ifmapKb = 0;
    std::uint64_t filterKb = 0;
    std::uint64_t ofmapKb = 0;
};
SramSplit splitSramKb(std::uint64_t totalKb);

/** Sweep definition; the base config supplies every other knob. */
struct DseSweep
{
    std::vector<std::uint32_t> arraySizes = {16, 32, 64, 128};
    std::vector<Dataflow> dataflows = {Dataflow::OutputStationary,
                                       Dataflow::WeightStationary,
                                       Dataflow::InputStationary};
    /** Total on-chip SRAM budgets (split 2:1:1 ifmap:filter:ofmap). */
    std::vector<std::uint64_t> sramKbTotals = {1024};
    SimConfig base;

    /**
     * Worker threads evaluating candidates (1 = sequential, 0 = auto
     * via SCALESIM_JOBS / hardware concurrency). Each worker owns its
     * own Simulator, and results are stored by candidate index, so the
     * output is bit-identical for every jobs value.
     */
    unsigned jobs = 1;
};

/** One evaluated design point plus its full stats registry. */
struct DseDetailedPoint
{
    DsePoint point;
    /** The point's RunResult stats (sim.*, spad.*, dram.*, ...). */
    obs::StatsRegistry stats;
    /**
     * The point's interval time-series (empty unless the sweep's base
     * config sets intervalCycles). Stored by candidate index like
     * `stats`, so serialized series are byte-identical for every jobs
     * value.
     */
    obs::IntervalSeries intervals;
};

/** Evaluate every point of the sweep on a workload. */
std::vector<DsePoint> runSweep(const DseSweep& sweep,
                               const Topology& topology);

/**
 * Like runSweep, but each point also carries the run's stats
 * registry. Workers write their private registry into the point's
 * index slot, so the output — including every stats dump — is
 * byte-identical for every jobs value.
 */
std::vector<DseDetailedPoint> runSweepDetailed(const DseSweep& sweep,
                                               const Topology& topology);

/**
 * The one sweep driver: derive each candidate's config from
 * `sweep.base` (array size, dataflow, 2:1:1 SRAM split, energy on),
 * evaluate it with `run_point` on `sweep.jobs` workers, and store the
 * result at the candidate's sequential-order index. The two-argument
 * form passes the coupled Simulator::run; the sweep server passes its
 * layer-isolated cached runner. `run_point` is called concurrently
 * and must share no unsynchronized state between calls.
 */
std::vector<DseDetailedPoint> runSweepDetailed(
    const DseSweep& sweep,
    const std::function<RunResult(const SimConfig&)>& run_point);

/**
 * Fold every point's registry into one sweep-aggregate registry in
 * index (= sequential candidate) order: scalars and vectors sum
 * across points, distributions merge, and a `sweep.points` scalar
 * records how many designs contributed. Deterministic byte-for-byte
 * regardless of the jobs count used to produce the points.
 */
obs::StatsRegistry mergeSweepStats(
    const std::vector<DseDetailedPoint>& points);

/**
 * Latency-energy Pareto frontier, sorted by ascending cycles. Every
 * returned point is non-dominated; every extreme (min-latency,
 * min-energy) is included.
 */
std::vector<DsePoint> paretoFrontier(std::vector<DsePoint> points);

/**
 * Per point, whether it lies on paretoFrontier(points). Points that
 * share a design (array, dataflow, SRAM) share the answer.
 */
std::vector<bool> onParetoFrontier(const std::vector<DsePoint>& points);

/** CSV report of all points, flagging the Pareto-optimal ones. */
void writeDseReport(std::ostream& out,
                    const std::vector<DsePoint>& points);

} // namespace scalesim::core

#endif // SCALESIM_CORE_DSE_HH
