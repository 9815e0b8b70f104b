/**
 * @file
 * Action-count generation (paper §VII-C/D/E): the trace-driven counter
 * distinguishes repeated from random SRAM accesses using the 'row
 * size' / 'bank size' lookup, and the analytical estimator produces
 * the same structure from closed-form access counts for fast sweeps.
 */

#ifndef SCALESIM_ENERGY_ACTION_COUNTS_HH
#define SCALESIM_ENERGY_ACTION_COUNTS_HH

#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "systolic/fold_cache.hpp"

namespace scalesim::energy
{

/** Random/repeat/idle split for one smart-buffer SRAM. */
struct SramActionCounts
{
    Count readRandom = 0;
    Count readRepeat = 0;
    Count writeRandom = 0;
    Count writeRepeat = 0;
    Count idle = 0;

    Count reads() const { return readRandom + readRepeat; }
    Count writes() const { return writeRandom + writeRepeat; }
};

/** Complete action-count summary for one layer (or accumulated run). */
struct ActionCounts
{
    // MAC action types (§VII-E).
    Count macRandom = 0;
    Count macConstant = 0; ///< clocked, no new data
    Count macGated = 0;    ///< clock-gated idle PEs

    // PE scratchpads (§VII-E).
    Count ifmapSpadRead = 0;
    Count ifmapSpadWrite = 0;
    Count weightSpadRead = 0;
    Count weightSpadWrite = 0;
    Count psumSpadRead = 0;
    Count psumSpadWrite = 0;

    // Smart-buffer SRAMs (§VII-C/D).
    SramActionCounts ifmapSram;
    SramActionCounts filterSram;
    SramActionCounts ofmapSram;

    // Vector/SIMD unit lane-operations (§III-C tails).
    Count vectorOps = 0;

    // Main memory and interconnect.
    Count dramReadWords = 0;
    Count dramWriteWords = 0;
    Count nocWords = 0;

    Cycle cycles = 0;
};

/**
 * Trace-driven action counter. Repeated-access lookup (§VII-C): each
 * SRAM keeps `bankSize` most-recently-used row buffers of `rowSize`
 * words; an access falling in a live row buffer is a repeat.
 */
class ActionCountVisitor : public systolic::DemandVisitor
{
  public:
    ActionCountVisitor(const EnergyConfig& cfg, bool clock_gating = true);

    void beginLayer(const systolic::FoldGrid& grid,
                    const systolic::OperandMap& operands) override;
    void beginFold(std::uint64_t rf, std::uint64_t cf,
                   Cycle fold_start) override;
    void cycle(Cycle clk, std::span<const Addr> ifmap_reads,
               std::span<const Addr> filter_reads,
               std::span<const Addr> ofmap_reads,
               std::span<const Addr> ofmap_writes) override;
    void endLayer(Cycle total_cycles) override;

    /**
     * Count a cached fold from per-fold stream summaries instead of
     * its addresses (see StreamSummary). Always consumes the fold.
     * A class capture arrives here too, unshifted.
     */
    bool replayFold(const systolic::FoldCacheEntry& entry,
                    Cycle fold_start,
                    const systolic::ReplayDeltas& deltas,
                    bool accumulate) override;

    const ActionCounts& counts() const { return counts_; }

    /**
     * Replayed folds counted through replayFold(), over all layers;
     * class captures are not counted.
     */
    Count foldsSummarized() const { return foldsSummarized_; }

  private:
    /**
     * Banked MRU row-buffer trackers for the repeat lookup, stored as
     * one flat `banks * capacity` array (MRU first within each bank)
     * so the per-address hot path is a single indexed load instead of
     * a pointer chase through per-bank vectors.
     */
    struct RowTrackerSet
    {
        /** Row held by an empty slot; rowOf() never forms it. */
        static constexpr std::uint64_t kEmptyRow = ~std::uint64_t{0};

        /** banks * capacity, MRU first; empty slots trail a bank. */
        std::vector<std::uint64_t> rows;
        std::uint32_t capacity = 4;
        void reset(std::uint32_t banks, std::uint32_t cap);
        /** MRU lookup+update; true when `row` was live. */
        bool access(std::uint64_t bank, std::uint64_t row);
        /** Live (non-empty) rows of `bank`. */
        std::uint32_t size(std::uint64_t bank) const;
    };

    /**
     * Step each address of `addrs`, offset by `rho`, through
     * `trackers`, calling on_step(bank, row, hit) after each.
     */
    template <typename OnStep>
    void step(RowTrackerSet& trackers, std::span<const Addr> addrs,
              std::uint64_t rho, OnStep on_step) const;
    void countAccesses(RowTrackerSet& trackers,
                       std::span<const Addr> addrs, Count& random,
                       Count& repeat);

    /**
     * What one canonical fold stream does to a RowTrackerSet when its
     * addresses are shifted by q * rowSize + rho, for one rho. Shifting
     * by whole rows moves every row by q and rotates the banks by q, and
     * LRU outcomes only compare rows for equality, so the summary holds
     * for every q. Per touched bank it keeps the first (up to capacity)
     * distinct rows in first-touch order — the only accesses whose
     * outcome depends on the incoming tracker state — and the bank's
     * final MRU list of in-fold rows. Every later access hits or misses
     * the same way whatever the incoming state: `fixedRepeats` counts
     * its hits.
     */
    struct StreamSummary
    {
        Count addrs = 0;
        Count fixedRepeats = 0;
        std::uint32_t firstBank = 0; ///< index into bankPool_
        std::uint32_t numBanks = 0;
    };
    /**
     * One touched bank of a StreamSummary: `distinct` = min(distinct
     * rows, capacity); rowPool_[rows, rows + distinct) are the first
     * touches, the next `distinct` entries the final MRU list.
     */
    struct BankSummary
    {
        std::uint32_t bank = 0;
        std::uint32_t distinct = 0;
        std::uint64_t rows = 0;
    };
    std::uint64_t rowOf(Addr addr) const;
    const StreamSummary& summary(const systolic::FoldCacheEntry& entry,
                                 std::uint32_t stream,
                                 std::span<const Addr> addrs,
                                 std::uint64_t rho);
    /** Apply a stream summary, shifted by `delta`, to `trackers`. */
    void applySummary(RowTrackerSet& trackers,
                      const systolic::FoldCacheEntry& entry,
                      std::uint32_t stream, std::span<const Addr> addrs,
                      std::int64_t delta, Count& random, Count& repeat);

    /** rowShift_ sentinel: row size is not a power of two, divide. */
    static constexpr std::uint32_t kNoRowShift = ~0u;

    EnergyConfig cfg_;
    bool clockGating_;
    /** log2(rowSize) when rowSize is a power of two, else sentinel. */
    std::uint32_t rowShift_ = kNoRowShift;
    ActionCounts counts_;
    /** counts_ snapshot taken at beginLayer, for per-layer deltas. */
    ActionCounts layerStart_;
    // One tracker bank set per SRAM stream (rows hash across banks),
    // each bank holding `bankSize` open row buffers.
    RowTrackerSet ifmapRows_;
    RowTrackerSet filterRows_;
    RowTrackerSet ofmapReadRows_;
    RowTrackerSet ofmapWriteRows_;

    // Per-layer stream summaries, pooled so steady-state replays
    // allocate nothing; cleared in beginLayer. Keyed on the capture
    // fold, the sub-row shift and the stream; ofmap writes (stream 2)
    // are replayed as accumulating folds' ofmap reads too.
    std::unordered_map<systolic::ReplayMemoKey, std::uint32_t,
                       systolic::ReplayMemoKeyHash>
        summaryIndex_;
    std::vector<StreamSummary> summaries_;
    std::vector<BankSummary> bankPool_;
    std::vector<std::uint64_t> rowPool_;
    /** Scratch for building summaries and applying them. */
    RowTrackerSet summaryRows_;
    std::vector<std::uint64_t> firstRows_;
    std::vector<std::uint32_t> firstCount_;
    std::vector<std::uint64_t> incoming_;
    RowTrackerSet probe_;
    /** The fold announced by beginFold; a capture replays itself. */
    std::uint64_t foldRf_ = 0;
    std::uint64_t foldCf_ = 0;
    Count foldsSummarized_ = 0;

    double utilization_ = 0.0;
    std::uint32_t arrayRows_ = 1;
    std::uint32_t arrayCols_ = 1;
};

/**
 * Closed-form action counts for the analytical path. Streaming-operand
 * accesses are mostly sequential, so their repeat fraction is
 * (rowSize - 1) / rowSize; stationary-tile loads stride across the
 * operand and count as random.
 */
ActionCounts analyticalActionCounts(const systolic::FoldGrid& grid,
                                    const EnergyConfig& cfg,
                                    bool clock_gating = true);

} // namespace scalesim::energy

#endif // SCALESIM_ENERGY_ACTION_COUNTS_HH
