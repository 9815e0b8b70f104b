/**
 * @file
 * Double-buffered scratchpad timing model. Schedules per-fold operand
 * prefetches against a MainMemory through finite request queues,
 * overlapping fold f's prefetch with fold f-1's compute, and accounts
 * the resulting stall cycles — the v3 "memory delay modeling" of §V-A.
 *
 * Reuse is modeled at tile granularity: each operand SRAM keeps an LRU
 * set of resident tiles sized to half its capacity (the other half is
 * the shadow buffer being filled). Partial-sum (ofmap) traffic stays
 * on-chip when a fold's output working set fits the ofmap SRAM,
 * otherwise it spills and re-loads per fold.
 */

#ifndef SCALESIM_SYSTOLIC_SCRATCHPAD_HH
#define SCALESIM_SYSTOLIC_SCRATCHPAD_HH

#include <list>
#include <memory>
#include <string>
#include <vector>
#include <unordered_map>

#include "common/config.hpp"
#include "obs/cpi.hpp"
#include "obs/stats.hpp"
#include "systolic/mapping.hpp"
#include "systolic/memory.hpp"

namespace scalesim::systolic
{

/** Scratchpad and memory-datapath configuration. */
struct ScratchpadConfig
{
    std::uint64_t ifmapWords = 256 * 1024;
    std::uint64_t filterWords = 256 * 1024;
    std::uint64_t ofmapWords = 128 * 1024;
    /** Words per DRAM transaction (burst). */
    std::uint32_t burstWords = 64;
    /** Finite request queues (§V-A.2). */
    std::uint32_t readQueueSize = 128;
    std::uint32_t writeQueueSize = 128;
    /** Max demand requests the front-end can issue per cycle. */
    std::uint32_t issuePerCycle = 1;

    /**
     * How many folds the prefetcher may run ahead of compute (1 =
     * classic double buffering). Deeper prefetch hides longer memory
     * latencies at the cost of more shadow-buffer capacity: the
     * resident share of each SRAM shrinks to 1/(depth+1).
     */
    std::uint32_t prefetchDepth = 1;

    /**
     * Record per-fold compute spans into LayerTiming::foldSpans (for
     * timeline/trace export). Off by default: large layers have many
     * folds and sweeps don't need them.
     */
    bool recordFoldSpans = false;
};

/**
 * Scratchpad knobs of a run configuration: SRAM sizes converted to
 * words, the [memory] request-queue sizes, burst, issue width,
 * prefetch depth and fold-span recording. Single-core, multi-core and
 * trace-writing runs all build their scratchpads from this.
 */
ScratchpadConfig scratchpadConfig(const SimConfig& cfg);

/**
 * `[section] Key` of every payload row of the SimConfig field table
 * that the multi-core trace path does not honour, whose value differs
 * from the default and whose feature switch is on: e.g. the DRAM
 * timing, layout and energy models and sparsity. Empty at defaults.
 */
std::vector<std::string> multiCoreIgnoredFeatures(const SimConfig& cfg);

/** One fold's compute interval, relative to the layer's start cycle. */
struct FoldSpan
{
    Cycle start = 0;
    Cycle end = 0;
    std::uint32_t rowFold = 0;
    std::uint32_t colFold = 0;
};

/** Timing and traffic results of one layer run. */
struct LayerTiming
{
    /** Ideal compute cycles (no memory stalls). */
    Cycle computeCycles = 0;
    /** Wall-clock cycles including stalls. */
    Cycle totalCycles = 0;
    /** totalCycles - computeCycles. */
    Cycle stallCycles = 0;

    /**
     * Stall breakdown by cause; the three buckets sum exactly to
     * stallCycles. `prefetchStallCycles` is compute waiting on operand
     * prefetch data, `bandwidthStallCycles` is the share of that wait
     * attributable to a full read request queue, and
     * `drainStallCycles` is ofmap-writeback back-pressure extending
     * the layer past the last fold's compute.
     */
    Cycle prefetchStallCycles = 0;
    Cycle drainStallCycles = 0;
    Cycle bandwidthStallCycles = 0;

    /**
     * CPI stack of this layer: every wall-clock cycle in exactly one
     * bucket (cpi.total() == totalCycles). Computed in finishLayer():
     * compute/drain/bandwidth copy the buckets above; the prefetch
     * stall is apportioned across the backend components (L2-arbiter
     * wait, DRAM queue wait, DRAM service, refresh shadow) pro-rata to
     * the read-latency components the memory model reported for this
     * layer, with the remainder staying prefetchMiss.
     */
    obs::CpiStack cpi;

    /**
     * Per-fold compute spans (only when
     * ScratchpadConfig::recordFoldSpans is set; capped at
     * kMaxRecordedFoldSpans per layer).
     */
    std::vector<FoldSpan> foldSpans;
    static constexpr std::size_t kMaxRecordedFoldSpans = 8192;

    /** Folds the systolic engine executed (rowFolds x colFolds). */
    Count folds = 0;

    std::uint64_t dramReadWords = 0;
    std::uint64_t dramWriteWords = 0;
    Count dramReadRequests = 0;
    Count dramWriteRequests = 0;
    /** Mean round-trip read latency in core cycles. */
    double avgReadLatency = 0.0;
    /** Cycles lost to a full read/write queue. */
    Cycle readQueueStalls = 0;
    Cycle writeQueueStalls = 0;

    /** Average DRAM read bandwidth in words per cycle. */
    double
    readBandwidth() const
    {
        return totalCycles
            ? static_cast<double>(dramReadWords) / totalCycles : 0.0;
    }
    double
    writeBandwidth() const
    {
        return totalCycles
            ? static_cast<double>(dramWriteWords) / totalCycles : 0.0;
    }

    void
    accumulate(const LayerTiming& other)
    {
        computeCycles += other.computeCycles;
        totalCycles += other.totalCycles;
        stallCycles += other.stallCycles;
        prefetchStallCycles += other.prefetchStallCycles;
        drainStallCycles += other.drainStallCycles;
        bandwidthStallCycles += other.bandwidthStallCycles;
        cpi.accumulate(other.cpi);
        folds += other.folds;
        dramReadWords += other.dramReadWords;
        dramWriteWords += other.dramWriteWords;
        dramReadRequests += other.dramReadRequests;
        dramWriteRequests += other.dramWriteRequests;
        readQueueStalls += other.readQueueStalls;
        writeQueueStalls += other.writeQueueStalls;
        // Weighted by requests.
        if (dramReadRequests) {
            avgReadLatency = (avgReadLatency
                * (dramReadRequests - other.dramReadRequests)
                + other.avgReadLatency * other.dramReadRequests)
                / dramReadRequests;
        }
    }
};

/**
 * LRU tile cache standing in for one operand SRAM's active half.
 */
class TileCache
{
  public:
    explicit TileCache(std::uint64_t capacity_words);

    /**
     * Touch tile `key` of `words` words. Returns the words that must be
     * fetched from DRAM (0 on a resident hit; `words` on a miss).
     * Oversized tiles bypass the cache entirely.
     */
    std::uint64_t access(std::uint64_t key, std::uint64_t words);

    void clear();

  private:
    std::uint64_t capacity_;
    std::uint64_t used_ = 0;
    std::list<std::pair<std::uint64_t, std::uint64_t>> lru_;
    // Keyed access only: eviction and every stat walk lru_, so hash
    // order never reaches timing or outputs (scalesim_lint
    // unordered-iteration-to-output keeps it that way).
    std::unordered_map<std::uint64_t, decltype(lru_)::iterator> index_;
};

/**
 * The fold-level memory-system scheduler. One instance per core; reuse
 * state persists across layers until reset().
 *
 * Two ways to drive it: runLayer() executes a whole layer at once
 * (single-core use), or the incremental stepping interface
 * (beginLayer / nextEventCycle / step / finishLayer) advances the
 * layer one memory transaction at a time so several engines can be
 * co-simulated against one shared memory timeline. runLayer() is
 * implemented on top of the stepping interface, so both paths are
 * bit-identical.
 */
class DoubleBufferedScratchpad
{
  public:
    DoubleBufferedScratchpad(const ScratchpadConfig& cfg,
                             MainMemory& memory);
    ~DoubleBufferedScratchpad();

    /**
     * Run one layer.
     *
     * @param grid         fold geometry (possibly sparsity-compressed)
     * @param operands     operand address map (dense dims)
     * @param start_cycle  timeline origin (end of previous layer)
     * @param compute_scale multiplies each fold's compute time (layout
     *                     slowdown, SIMD serialization, ...)
     */
    LayerTiming runLayer(const FoldGrid& grid, const OperandMap& operands,
                         Cycle start_cycle = 0,
                         double compute_scale = 1.0);

    /** nextEventCycle() value when the layer has no further events. */
    static constexpr Cycle kNoEvent = ~static_cast<Cycle>(0);

    /**
     * Start a layer in stepping mode (parameters as runLayer). The
     * engine positions itself at its first memory transaction; drive
     * it with step() until nextEventCycle() == kNoEvent, then call
     * finishLayer(). `grid` and `operands` are copied.
     */
    void beginLayer(const FoldGrid& grid, const OperandMap& operands,
                    Cycle start_cycle = 0, double compute_scale = 1.0);

    /**
     * Cycle at which this engine issues its next memory transaction
     * (run-until-blocked horizon for a co-simulation scheduler), or
     * kNoEvent when the layer is complete. Depends only on this
     * engine's own state — never on other engines sharing the memory —
     * so a scheduler may interleave engines in any time-honoring order.
     */
    Cycle nextEventCycle() const;

    /**
     * Issue the pending memory transaction and advance (through any
     * amount of pure fold bookkeeping) to the next one. Only valid
     * while nextEventCycle() != kNoEvent.
     */
    void step();

    /** Finalize the stepped layer and return its timing. */
    LayerTiming finishLayer();

    /** Drop residency state (new workload / new core). */
    void reset();

    /** Timing totals accumulated across every runLayer call. */
    const LayerTiming& totals() const { return totals_; }

    /**
     * Register cumulative scratchpad stats under `prefix` (e.g.
     * "spad"): cycle totals, the stall-reason breakdown, DRAM traffic
     * and queue-stall counters, plus derived fractions.
     */
    void registerStats(obs::StatsRegistry& reg,
                       const std::string& prefix) const;

    /** Strided address range of one operand tile in DRAM. */
    struct TileSpan
    {
        Addr base = 0;
        std::uint64_t segments = 0;
        std::uint64_t segWords = 0;
        std::uint64_t stride = 0;
        std::uint64_t words() const { return segments * segWords; }
    };

  private:
    /** Resumable per-layer state of the stepping engine. */
    struct LayerRun;

    /** Plan row-granular ifmap fetches for a convolution fold. */
    void planConvIfmap(const OperandMap& operands, std::uint64_t m_lo,
                       std::uint64_t m_hi, std::uint64_t k_lo,
                       std::uint64_t k_hi, std::uint64_t effective_k,
                       std::vector<TileSpan>& reads);

    /** Plan fold (rf, cf)'s fetches/writeback into run_->plan. */
    void planFold();
    /** Pure bookkeeping from one burst to the next issue point. */
    void advance();
    /** Close fold (rf, cf): stall attribution, move to the next. */
    void foldWrapup();

    ScratchpadConfig cfg_;
    MainMemory& memory_;
    TileCache ifmapCache_;
    TileCache filterCache_;
    /** Cumulative timing across layers (observability). */
    LayerTiming totals_;
    /** Live between beginLayer() and finishLayer(). */
    std::unique_ptr<LayerRun> run_;
};

} // namespace scalesim::systolic

#endif // SCALESIM_SYSTOLIC_SCRATCHPAD_HH
