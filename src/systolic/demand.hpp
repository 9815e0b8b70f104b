/**
 * @file
 * Cycle-accurate demand generation. The generator walks a layer fold by
 * fold and emits, for every cycle, the SRAM addresses requested at the
 * array edge (ifmap/filter reads, ofmap reads/writes). Consumers
 * implement DemandVisitor; beyond per-layer ifmap address tables (K
 * column offsets, plus M row bases under WS) nothing is materialized,
 * so memory stays bounded by one cycle's worth of addresses
 * (<= R + 2C entries).
 *
 * This is the v3 equivalent of SCALE-Sim's demand-matrix generation,
 * reorganized as a streaming producer so that the layout model, the
 * energy action counter, and trace writers can all tap the same pass.
 */

#ifndef SCALESIM_SYSTOLIC_DEMAND_HH
#define SCALESIM_SYSTOLIC_DEMAND_HH

#include <memory_resource>
#include <span>
#include <vector>

#include "systolic/mapping.hpp"

namespace scalesim::systolic
{

/**
 * Maps compressed (post-sparsity) K indices back to original K indices
 * for gathered streaming reads. Implemented by the sparse module; dense
 * runs pass nullptr.
 */
class KGatherMap
{
  public:
    virtual ~KGatherMap() = default;
    /** Number of compressed K rows (<= dense K). */
    virtual std::uint64_t compressedK() const = 0;
    /** Original K index backing compressed row `comp_k`. */
    virtual std::uint64_t origK(std::uint64_t comp_k) const = 0;
};

/** Counters of one generation pass through the fold-replay cache. */
struct FoldCacheStats
{
    /** Folds walked (replayed + live). */
    Count foldsTotal = 0;
    /** Folds served by shifting a cached canonical fold. */
    Count foldsReplayed = 0;
    /** Folds generated live (class captures plus ragged/non-affine
     *  fallbacks, or everything when the cache is disabled). */
    Count foldsLive = 0;
    /** Addresses emitted from cache arenas instead of live math. */
    Count addrsReplayed = 0;

    /** Address bytes that skipped live generation. */
    Count bytesSaved() const { return addrsReplayed * sizeof(Addr); }

    void
    merge(const FoldCacheStats& other)
    {
        foldsTotal += other.foldsTotal;
        foldsReplayed += other.foldsReplayed;
        foldsLive += other.foldsLive;
        addrsReplayed += other.addrsReplayed;
    }
};

struct CaptureShape;
struct FoldCacheEntry;
struct ReplayDeltas;

/** Per-cycle demand observer. Spans are only valid during the call. */
class DemandVisitor
{
  public:
    virtual ~DemandVisitor() = default;

    virtual void beginLayer(const FoldGrid&, const OperandMap&) {}
    virtual void beginFold(std::uint64_t /*rf*/, std::uint64_t /*cf*/,
                           Cycle /*fold_start*/) {}

    /**
     * One array cycle. `clk` is absolute within the layer. The spans
     * hold the valid addresses requested this cycle (no sentinels).
     */
    virtual void cycle(Cycle clk, std::span<const Addr> ifmap_reads,
                       std::span<const Addr> filter_reads,
                       std::span<const Addr> ofmap_reads,
                       std::span<const Addr> ofmap_writes) = 0;

    /**
     * A fold the fold cache replays: `entry`'s canonical streams
     * shifted by `deltas`, starting at `fold_start`; when `accumulate`,
     * the shifted writes double as the ofmap read stream. Return true
     * to consume the fold without its addresses. The default returns
     * false, and the generator then sends the fold's cycles through
     * cycle() as for any other fold. Within one layer, `entry` is
     * identified by its capture fold (entry.rf, entry.cf). A class's
     * capture fold arrives here too, with zero deltas: it is the call
     * whose (entry.rf, entry.cf) is the fold beginFold announced.
     */
    virtual bool
    replayFold(const FoldCacheEntry& /*entry*/, Cycle /*fold_start*/,
               const ReplayDeltas& /*deltas*/, bool /*accumulate*/)
    {
        return false;
    }

    virtual void endFold(std::uint64_t /*rf*/, std::uint64_t /*cf*/,
                         Cycle /*fold_end*/) {}
    virtual void endLayer(Cycle /*total_cycles*/) {}
};

/**
 * Streaming demand generator for one layer under one dataflow.
 *
 * With a KGatherMap (weight-stationary only, as in the paper's sparse
 * evaluations), the stationary filter tile addresses index the
 * compressed filter storage while ifmap streaming reads gather the
 * original K rows.
 */
class DemandGenerator
{
  public:
    DemandGenerator(const GemmDims& gemm, Dataflow df,
                    std::uint32_t array_rows, std::uint32_t array_cols,
                    const OperandMap& operands,
                    const KGatherMap* gather = nullptr);

    /** Fold grid after sparsity compression (if any). */
    const FoldGrid& grid() const { return grid_; }

    /** Total cycles the generated schedule spans. */
    Cycle totalCycles() const { return grid_.totalCycles(); }

    /**
     * Run the full layer through the visitor. The fold cache's
     * captures take their storage from `captures`, exactly
     * captureBytes() of it; a resource that cannot give that much
     * throws out of run().
     */
    void run(DemandVisitor& visitor,
             std::pmr::memory_resource* captures =
                 std::pmr::get_default_resource()) const;

    /**
     * Bytes run() takes from its resource: one capture of the
     * canonical fold's shape per equivalence class, at most
     * FoldReplayCache::kMaxEntries of them (0 without the fold cache
     * or with a single fold). Computed from the fold grid alone.
     */
    std::size_t captureBytes() const;

    /** Enable/disable the fold-replay demand cache (default on). */
    void setFoldCache(bool enabled) { foldCache_ = enabled; }

    /** Fold-cache counters of the most recent run(). */
    const FoldCacheStats& foldCacheStats() const { return cacheStats_; }

  private:
    void runFold(DemandVisitor& visitor, std::uint64_t rf,
                 std::uint64_t cf, Cycle fold_start) const;
    void runFoldOs(DemandVisitor& visitor, std::uint64_t rf,
                   std::uint64_t cf, Cycle fold_start) const;
    /** WS (filter stationary) or IS (ifmap stationary) fold. */
    template <bool WS>
    void runFoldStationary(DemandVisitor& visitor, std::uint64_t rf,
                           std::uint64_t cf, Cycle fold_start) const;

    /**
     * Fold-equivalence class of (rf, cf): two full folds with the same
     * key emit shift-identical streams. False when the ifmap mapping
     * is not shift-replayable for this fold (conv window spanning an
     * image boundary).
     */
    bool replayKey(std::uint64_t rf, std::uint64_t cf,
                   std::uint64_t& key) const;
    /** True when run() replays: the cache is on, folds > 1. */
    bool cached() const;
    /** Whether fold (rf, cf) may replay, and its class key if so. */
    bool replayable(std::uint64_t rf, std::uint64_t cf,
                    std::uint64_t& key) const;
    /** Sizes of one capture of the canonical (first) fold. */
    CaptureShape captureShape() const;
    ReplayDeltas replayDeltas(const FoldCacheEntry& entry,
                              std::uint64_t rf, std::uint64_t cf) const;

    GemmDims denseGemm_;
    GemmDims effectiveGemm_;
    FoldGrid grid_;
    OperandMap operands_;
    const KGatherMap* gather_;
    /** ifmapColOffset(k) of every dense k. */
    std::vector<std::uint64_t> kOff_;
    /** ifmapRowBase(m) of every m; WS only, whose folds stream all M. */
    std::vector<Addr> mBase_;
    bool foldCache_ = true;
    mutable FoldCacheStats cacheStats_;
};

/**
 * Fans one demand stream out to several visitors. A replayed fold is
 * offered to every sink; the cycles of that fold then reach only the
 * sinks that declined it.
 */
class TeeVisitor : public DemandVisitor
{
  public:
    explicit TeeVisitor(std::vector<DemandVisitor*> sinks)
        : sinks_(std::move(sinks))
    {
        declined_.reserve(sinks_.size());
    }

    void
    beginLayer(const FoldGrid& grid, const OperandMap& operands) override
    {
        for (auto* sink : sinks_)
            sink->beginLayer(grid, operands);
    }
    void
    beginFold(std::uint64_t rf, std::uint64_t cf, Cycle start) override
    {
        for (auto* sink : sinks_)
            sink->beginFold(rf, cf, start);
    }
    void
    cycle(Cycle clk, std::span<const Addr> ifmap_reads,
          std::span<const Addr> filter_reads,
          std::span<const Addr> ofmap_reads,
          std::span<const Addr> ofmap_writes) override
    {
        for (auto* sink : partial_ ? declined_ : sinks_)
            sink->cycle(clk, ifmap_reads, filter_reads, ofmap_reads,
                        ofmap_writes);
    }
    bool
    replayFold(const FoldCacheEntry& entry, Cycle fold_start,
               const ReplayDeltas& deltas, bool accumulate) override
    {
        declined_.clear();
        for (auto* sink : sinks_)
            if (!sink->replayFold(entry, fold_start, deltas, accumulate))
                declined_.push_back(sink);
        partial_ = declined_.size() < sinks_.size();
        return declined_.empty();
    }
    void
    endFold(std::uint64_t rf, std::uint64_t cf, Cycle end) override
    {
        partial_ = false;
        for (auto* sink : sinks_)
            sink->endFold(rf, cf, end);
    }
    void
    endLayer(Cycle total) override
    {
        for (auto* sink : sinks_)
            sink->endLayer(total);
    }

  private:
    std::vector<DemandVisitor*> sinks_;
    /** Sinks that declined the current replayed fold. */
    std::vector<DemandVisitor*> declined_;
    /** Some sinks consumed the current fold: feed only declined_. */
    bool partial_ = false;
};

/** Demand visitor that counts accesses (handy for tests). */
class CountingVisitor : public DemandVisitor
{
  public:
    void cycle(Cycle clk, std::span<const Addr> ifmap_reads,
               std::span<const Addr> filter_reads,
               std::span<const Addr> ofmap_reads,
               std::span<const Addr> ofmap_writes) override;

    Count ifmapReads = 0;
    Count filterReads = 0;
    Count ofmapReads = 0;
    Count ofmapWrites = 0;
    Cycle lastCycle = 0;
    Count activeCycles = 0;
};

} // namespace scalesim::systolic

#endif // SCALESIM_SYSTOLIC_DEMAND_HH
