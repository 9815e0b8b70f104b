/**
 * @file
 * SCALE-Sim v3's end-to-end simulator: per-layer runs combining the
 * systolic compute model, sparsity, the detailed DRAM model, on-chip
 * data layout, and energy/power estimation, driven by one SimConfig.
 * This is the public entry point library users should start from.
 */

#ifndef SCALESIM_CORE_SIMULATOR_HH
#define SCALESIM_CORE_SIMULATOR_HH

#include <functional>
#include <iosfwd>
#include <memory>
#include <memory_resource>
#include <optional>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "common/config.hpp"
#include "common/profiler.hpp"
#include "common/topology.hpp"
#include "dram/system.hpp"
#include "energy/action_counts.hpp"
#include "energy/model.hpp"
#include "layout/layout.hpp"
#include "obs/cpi.hpp"
#include "obs/interval.hpp"
#include "obs/stats.hpp"
#include "sparse/model.hpp"
#include "systolic/scratchpad.hpp"
#include "systolic/trace_io.hpp"

namespace scalesim::systolic
{
class CaptureArena;
}

namespace scalesim::core
{

/** Everything the simulator learns about one layer. */
struct LayerResult
{
    std::string name;
    std::uint32_t repetitions = 1;
    GemmDims denseGemm;
    GemmDims effectiveGemm; ///< after sparsity compression

    /** Ideal compute cycles of one instance (incl. layout slowdown). */
    Cycle computeCycles = 0;
    /** Vector-unit cycles of the layer's element-wise tail (§III-C). */
    Cycle simdCycles = 0;
    /** Wall-clock cycles of one instance, incl. memory stalls. */
    Cycle totalCycles = 0;
    Cycle stallCycles = 0;
    /** Useful-MAC fraction of the *effective* (post-sparsity) run. */
    double utilization = 0.0;
    /** Dense-over-effective compute-cycle ratio (1.0 when dense). */
    double speedup = 1.0;
    double mappingEfficiency = 0.0;
    double layoutSlowdown = 1.0;

    /**
     * CPI stack of one instance: timing.cpi plus the vector-unit tail
     * bucket, so cpi.total() == totalCycles (which includes
     * simdCycles). Audited as `cpi.conservation`.
     */
    obs::CpiStack cpi;

    systolic::LayerTiming timing;
    std::optional<sparse::SparseLayerReport> sparse;
    energy::ActionCounts actions;
    energy::EnergyBreakdown energyBreakdown;

    /** Average power of the layer in watts (0 if energy disabled). */
    double powerW = 0.0;
};

/** Whole-run results plus report writers. */
struct RunResult
{
    std::string runName;
    std::string workload;
    std::vector<LayerResult> layers;

    /** Totals across layers, weighted by repetitions. */
    Cycle totalCycles = 0;
    Cycle computeCycles = 0;
    Cycle stallCycles = 0;
    std::uint64_t dramReadWords = 0;
    std::uint64_t dramWriteWords = 0;
    energy::EnergyBreakdown totalEnergy;
    double avgPowerW = 0.0;
    /** Energy-delay product: totalCycles x total mJ. */
    double edp = 0.0;
    /** Detailed DRAM stats (meaningful when the DRAM model ran). */
    dram::DramStats dramStats;

    /**
     * Run-level CPI stack: repetition-weighted sum of the per-layer
     * stacks; cpiTotals.total() == totalCycles. `sim.cpistack` in the
     * stats output.
     */
    obs::CpiStack cpiTotals;

    /**
     * Periodic stats snapshots (deltas every SimConfig::intervalCycles
     * cycles of the simulated timeline; empty when disabled). Write
     * with intervals.writeStatsText/writeCsv/writeJson; Chrome traces
     * get them as counter tracks automatically.
     */
    obs::IntervalSeries intervals;

    /**
     * Instantaneous power profile (paper Table I: "Instantaneous +
     * Average"): one sample per layer instance, in execution order.
     */
    std::vector<energy::PowerSample> powerTrace;

    /** Self-profiling data of the simulation itself (Table IV). */
    SimProfile profile;

    /** True when the invariant auditor ran (SimConfig::audit). */
    bool audited = false;
    /** Conservation-law audit outcome (empty unless `audited`). */
    check::AuditReport audit;

    /**
     * Hierarchical stats of this run: sim.* run totals plus every
     * component's registered counters (dram.*, spad.*, sparse.*,
     * energy.*). Populated by every run; deterministic for a
     * given (config, topology) so parallel-sweep dumps are
     * byte-identical to sequential ones.
     */
    obs::StatsRegistry stats;

    /**
     * Fold one layer into the run totals: cycles, DRAM words and the
     * CPI stack weighted by its repetitions and, with `energy`, its
     * energy breakdown scaled likewise plus one power sample per
     * instance. Every run (the coupled Simulator::run, the
     * layer-isolated cached runner and runMultiCore) aggregates here.
     */
    void addLayer(LayerResult layer, bool energy);

    /**
     * gem5-style human-readable stats summary, including the
     * SIM_OVERHEAD self-profiling section.
     */
    void writeSummary(std::ostream& out) const;
    void writeComputeReport(std::ostream& out) const;
    void writePowerReport(std::ostream& out) const;
    void writeBandwidthReport(std::ostream& out) const;
    void writeSparseReport(std::ostream& out) const;
    void writeEnergyReport(std::ostream& out) const;

    /** gem5-format text dump of `stats` (stats.txt). */
    void writeStats(std::ostream& out) const;
    /** Machine-readable dump of `stats` (stats.json). */
    void writeStatsJson(std::ostream& out) const;

    /**
     * Machine-readable run report: everything the five text reports
     * print, as one JSON document (totals, per-layer results, DRAM
     * stats, energy breakdowns, power trace, self-profile).
     */
    void writeJson(std::ostream& out) const;

    /**
     * Chrome trace-event (Perfetto-compatible) timeline: spans per
     * layer instance, per phase (matrix/vector tail), and per fold
     * (when fold spans were recorded), plus power and utilization
     * counter tracks. Open in chrome://tracing or ui.perfetto.dev;
     * one accelerator cycle maps to one trace microsecond.
     */
    void writeChromeTrace(std::ostream& out) const;

    /**
     * Register run-derived stats (sim.*, sparse.*, energy.*) into a
     * registry. Component-state stats are registered by
     * Simulator::registerStats; Simulator::run does both.
     */
    void registerStats(obs::StatsRegistry& reg) const;

    /**
     * Register the five sim.* cycle/word totals and sim.cpistack.
     * Part of registerStats; also what each interval snapshot records.
     */
    void registerTotals(obs::StatsRegistry& reg) const;
};

/**
 * Trace taps on a Simulator's run (DESIGN.md "Trace outputs"). Null
 * streams cost nothing; the others must outlive the Simulator. In
 * Simulator::run and runIsolated the SRAM streams may be written by
 * the run's (then only) demand worker and the memory stream by the
 * calling thread, so the memory stream must not be one of the SRAM
 * streams.
 */
struct TraceStreams
{
    std::ostream* ifmapSram = nullptr;
    std::ostream* filterSram = nullptr;
    std::ostream* ofmapSram = nullptr;
    std::ostream* ofmapReadSram = nullptr;
    std::ostream* memory = nullptr;
};

/** The v3 simulator. One instance per accelerator configuration. */
class Simulator
{
  public:
    explicit Simulator(const SimConfig& cfg, TraceStreams traces = {});
    ~Simulator();

    const SimConfig& config() const { return cfg_; }

    /**
     * Return the instance to its just-constructed state: memory
     * models, scratchpad, timeline, fold-cache counters, auditor, and
     * self-profiler are all rebuilt from the config. run() calls this
     * automatically before a second run, making back-to-back runs
     * bit-identical to fresh-object runs; callers driving runLayer
     * directly can reset between logical runs themselves.
     */
    void reset();

    /** Receives a layer's index and result after its timing stage. */
    using LayerDone = std::function<void(std::size_t, LayerResult&&)>;

    /**
     * Simulate one layer (one instance; callers scale repetitions):
     * its demand stage, then its timing stage, on the calling thread.
     */
    LayerResult runLayer(const LayerSpec& layer,
                         std::uint64_t layer_index = 0);

    /**
     * Simulate a whole topology. When the run has a demand pass (trace
     * mode with energy or layout, or SRAM traces attached), demand
     * workers run the layers' demand stages, started in layer order,
     * while the calling thread runs each layer's timing stage
     * (DESIGN.md "Run pipeline"): min(2, resolveJobs(0) - 1) of them,
     * at least 1, and 1 with SRAM traces; on a parallelFor worker both
     * stages run on the calling thread. The passes' fold captures live
     * in this
     * object's capture arena (SimProfile::captureBytes). A layer of an
     * earlier layer's shape (LayerSpec::shapeFields) reuses that
     * layer's demand, unless sparsity is on or SRAM traces are attached
     * (SimProfile::layersReused). Results equal runLayer over every
     * layer plus registerStats. An exception stops and joins the
     * workers and is rethrown, the first in layer order.
     */
    RunResult run(const Topology& topology);

    /**
     * Simulate the layers `indices` of `topology`, in that order, each
     * in isolation: each layer's timing stage starts from freshly
     * built stateful components, a zero timeline and zero fold-cache
     * counters, so a layer's result depends only on its shape, index
     * and the config. The demand stages run as in run(), through the
     * same loop. `done(i, result)` is called after layer i's timing
     * stage, before the next rebuild, so it may read dramMemory() and
     * registerStats() for that layer alone. The
     * self-profile accumulates across the call, as across runLayer
     * calls; no run-level audit or interval sampling happens. Every
     * index must name a layer of `topology`.
     */
    void runIsolated(const Topology& topology,
                     const std::vector<std::size_t>& indices,
                     const LayerDone& done);

    /** The energy model (null unless the energy model is on). */
    const energy::EnergyModel* energyModel() const
    {
        return energyModel_.get();
    }

    /** Access the DRAM system (null unless the DRAM model is on). */
    const dram::DramMemory* dramMemory() const { return dram_.get(); }

    /** Self-profiling counters accumulated across runLayer calls. */
    SimProfile profile() const { return profiler_.snapshot(); }

    /** Fold-cache counters accumulated across runLayer calls. */
    const systolic::FoldCacheStats& foldCacheStats() const
    {
        return foldCacheStats_;
    }

    /** The invariant auditor (null unless SimConfig::audit). */
    const check::InvariantAuditor* auditor() const
    {
        return auditor_.get();
    }

    /**
     * Register component-state stats (dram.*, spad.*, mem.*) into a
     * registry. Called by run() on the result's registry; exposed for
     * callers driving runLayer directly.
     */
    void registerStats(obs::StatsRegistry& reg) const;

  private:
    /** What a layer's demand stage hands to its timing stage. */
    struct LayerDemand;

    /** Build all stateful components from cfg_ (ctor + rebuild body). */
    void init();

    /**
     * Rebuild the stateful components and zero the timeline and
     * fold-cache counters; the profiler is kept (reset() clears it).
     */
    void rebuild();

    /**
     * The one layer loop of run() and runIsolated(): the demand and
     * timing stages of `indices` in order, a repeated shape's demand
     * copied from its first layer, calling `done` after each timing
     * stage (DESIGN.md "Run pipeline").
     */
    void runLayers(const Topology& topology,
                   const std::vector<std::size_t>& indices,
                   const LayerDone& done);

    /** True when trace mode runs a demand pass for layout or energy. */
    bool modelPass() const;

    /**
     * Sparsity resolution plus the demand pass of one layer, its fold
     * captures in `captures`. Touches only per-layer objects and
     * sramTrace_, so runLayers() can give it to a demand worker.
     */
    LayerDemand demandStage(const LayerSpec& layer,
                            std::uint64_t layer_index,
                            std::pmr::memory_resource* captures);

    /**
     * The rest of one layer, on the calling thread in layer order:
     * fold-cache counters, memory timing, traces, energy, profiler
     * charges and every audit.
     */
    LayerResult timingStage(const LayerSpec& layer, LayerDemand demand);

    SimConfig cfg_;
    std::ostream* memTrace_; ///< TraceStreams::memory
    /** Set iff an SRAM stream is attached; flushes at every layer end. */
    std::unique_ptr<systolic::SramTraceWriter> sramTrace_;
    std::unique_ptr<systolic::BandwidthMemory> bandwidthMemory_;
    std::unique_ptr<dram::DramMemory> dram_;
    std::unique_ptr<systolic::TracingMemory> tracer_;
    systolic::MainMemory* memory_; // non-owning: what the spad drives
    std::unique_ptr<systolic::DoubleBufferedScratchpad> scratchpad_;
    std::unique_ptr<energy::EnergyModel> energyModel_;
    /** Running clock across layers (keeps memory time aligned). */
    Cycle timeline_ = 0;
    /** Demand-generation fold-cache counters across layers. */
    systolic::FoldCacheStats foldCacheStats_;
    /** Conservation-law auditor (only when SimConfig::audit). */
    std::unique_ptr<check::InvariantAuditor> auditor_;
    /** Wall-clock/RSS self-measurement of this instance's runs. */
    SimProfiler profiler_;
    /** Set by run(); triggers a reset() at the next run() call. */
    bool ranOnce_ = false;
    /**
     * Fold captures of runLayers' demand passes, mapped at the first
     * run that needs it and kept (DESIGN.md "Run pipeline").
     */
    std::unique_ptr<systolic::CaptureArena> captures_;
};

/**
 * Simulate a whole topology on a pr x pc grid of the config's arrays
 * over a shared L2 (multicore::multiCoreTraceConfig). Each layer takes
 * its cycles, timing and CPI stack from the slowest core and its DRAM
 * words from the backing memory. Stats hold every layer's `mc.l<i>.*`,
 * the repetition-weighted `mc.arbConflicts` and the sim.* totals. Warns
 * once per key systolic::multiCoreIgnoredFeatures names.
 */
RunResult runMultiCore(const SimConfig& cfg, std::uint64_t pr,
                       std::uint64_t pc, const Topology& topology);

} // namespace scalesim::core

#endif // SCALESIM_CORE_SIMULATOR_HH
