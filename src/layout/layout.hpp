/**
 * @file
 * On-chip data layout modeling (paper §VI). The multi-bank SRAM is
 * abstracted as a 2D array: each "line" aggregates the same row index
 * from all banks, and a nested-loop layout assigns every tensor element
 * a (line_id, col_id) position; bank_id = col_id / bandwidth_per_bank.
 * Per cycle, the bank with the most distinct lines requested divided by
 * its port count sets the slowdown:
 *
 *   slowdown = max_i ceil(total_rows_bank_i / num_ports_bank_i)
 *
 * The evaluator taps the demand stream and integrates the slowdown over
 * a whole layer, yielding the normalized slowdown of Figs. 12/13.
 */

#ifndef SCALESIM_LAYOUT_LAYOUT_HH
#define SCALESIM_LAYOUT_LAYOUT_HH

#include <array>
#include <unordered_map>
#include <vector>

#include "common/config.hpp"
#include "common/divider.hpp"
#include "systolic/fold_cache.hpp"

namespace scalesim::layout
{

/**
 * Nested-loop layout of a 2D operand (rows x cols). Intra-line steps
 * (rowStep, colStep) define the tile of elements sharing one line;
 * lines enumerate the tiles in row-major order (the inter-line
 * dimension order).
 */
struct Layout2D
{
    std::uint64_t rows = 1;
    std::uint64_t cols = 1;
    std::uint64_t rowStep = 1;
    std::uint64_t colStep = 1;

    std::uint64_t lineTiles() const
    {
        return ceilDiv(rows, rowStep) * ceilDiv(cols, colStep);
    }
    std::uint64_t wordsPerLine() const { return rowStep * colStep; }

    std::uint64_t
    lineId(std::uint64_t r, std::uint64_t c) const
    {
        return (r / rowStep) * ceilDiv(cols, colStep) + c / colStep;
    }
    std::uint64_t
    colId(std::uint64_t r, std::uint64_t c) const
    {
        return (r % rowStep) * colStep + c % colStep;
    }

    /** Row-major lines of `line_words` consecutive elements. */
    static Layout2D rowMajor(std::uint64_t rows, std::uint64_t cols,
                             std::uint64_t line_words);
    /** Column-major lines (line spans `line_words` rows of a column). */
    static Layout2D colMajor(std::uint64_t rows, std::uint64_t cols,
                             std::uint64_t line_words);
    /** Square-ish tiles of roughly line_words elements. */
    static Layout2D tiled(std::uint64_t rows, std::uint64_t cols,
                          std::uint64_t line_words);
};

/** How each operand's elements are arranged in its SRAM. */
enum class LayoutScheme
{
    RowMajor,
    ColMajor,
    Tiled,
};

/** Per-operand layouts for one layer. */
struct OperandLayouts
{
    Layout2D ifmap;  // M x K
    Layout2D filter; // K x N
    Layout2D ofmap;  // M x N

    /**
     * Build layouts for a GEMM where each line holds
     * `banks * bandwidth_per_bank` words.
     */
    static OperandLayouts forGemm(const GemmDims& gemm,
                                  const LayoutModelConfig& cfg,
                                  LayoutScheme scheme);

    /**
     * Build layouts for an operand map; convolution ifmaps lay out
     * the real (H, W*C) tensor, matching the paper's C x H x W
     * nested-loop example.
     */
    static OperandLayouts forOperands(const systolic::OperandMap& map,
                                      const LayoutModelConfig& cfg,
                                      LayoutScheme scheme);
};

/**
 * Demand visitor that evaluates bank conflicts cycle by cycle.
 * slowdown() is total slowed cycles / ideal cycles (>= 1).
 */
class BankConflictEvaluator : public systolic::DemandVisitor
{
  public:
    BankConflictEvaluator(const LayoutModelConfig& cfg,
                          const OperandLayouts& layouts);

    void beginLayer(const systolic::FoldGrid& grid,
                    const systolic::OperandMap& operands) override;
    void beginFold(std::uint64_t rf, std::uint64_t cf,
                   Cycle fold_start) override;
    void cycle(Cycle clk, std::span<const Addr> ifmap_reads,
               std::span<const Addr> filter_reads,
               std::span<const Addr> ofmap_reads,
               std::span<const Addr> ofmap_writes) override;

    /**
     * Charge a cached fold from memoized per-cycle costs instead of
     * its addresses (see costIndex_). Always consumes the fold. A class
     * capture arrives here too, unshifted.
     */
    bool replayFold(const systolic::FoldCacheEntry& entry,
                    Cycle fold_start,
                    const systolic::ReplayDeltas& deltas,
                    bool accumulate) override;

    /** Cycles the layer takes with bank conflicts applied. */
    Cycle slowedCycles() const { return slowedCycles_; }
    /** Ideal (conflict-free) cycles. */
    Cycle idealCycles() const { return idealCycles_; }
    /** slowedCycles / idealCycles, >= 1. */
    double slowdown() const;
    /** Cycles in which at least one bank exceeded its ports. */
    Count conflictCycles() const { return conflictCycles_; }

    /**
     * Replayed folds charged through replayFold(), over all layers;
     * class captures are not counted.
     */
    Count foldsMemoized() const { return foldsMemoized_; }

    /**
     * Non-empty stream-cycles whose cost came from the shape memo (see
     * ShapeSlot), and those evaluated address by address, over all
     * layers.
     */
    Count shapeHits() const { return shapeHits_; }
    Count shapeMisses() const { return shapeMisses_; }

  private:
    /**
     * One operand's address-to-(bank, line) map: off = addr - base,
     * (row, col) = (off / rowWidth, off % rowWidth), then the layout.
     * Shifting off by `period` keeps every bank and moves every line by
     * the same amount: rowStep rows always do; colStep words do when a
     * line is a run of colStep words that tiles the row exactly.
     *
     * beginLayer precomputes the per-address work: exact dividers for
     * the three runtime divisors, the lines per layout row, and the
     * bank of each of a line's rowStep * colStep columns (at most
     * onChipBandwidth of them), so an address costs multiplies and one
     * table load. byPeriod reduces the shape memo's rho0.
     */
    struct StreamMap
    {
        Layout2D layout;
        Addr base = 0;
        std::uint64_t rowWidth = 1;
        std::uint64_t period = 1;
        Divider byPeriod;
        Divider byRowWidth;
        Divider byRowStep;
        Divider byColStep;
        std::uint64_t linesPerRow = 1;
        std::vector<std::uint32_t> bankOfCol;
    };

    /** A memoized cost vector: costPool_[first, first + cycles). */
    struct CostSpan
    {
        std::size_t first = 0;
        std::size_t cycles = 0;
    };

    /**
     * Cost of one operand's accesses in one cycle: distinct lines in
     * the busiest bank over its ports. Addresses count as if shifted
     * by `rho`.
     */
    std::uint64_t operandSlowdown(const StreamMap& map,
                                  std::span<const Addr> reads,
                                  std::span<const Addr> extra,
                                  std::uint64_t rho);
    /**
     * operandSlowdown of `stream`'s accesses through the shape memo:
     * equal keys mean equal cost, so a repeated shape is looked up, not
     * evaluated.
     */
    std::uint64_t cycleCost(std::uint32_t stream,
                            std::span<const Addr> reads,
                            std::span<const Addr> extra,
                            std::uint64_t rho = 0);
    /** Index into costPool_ of a stream's per-cycle costs at `delta`. */
    std::size_t cycleCosts(const systolic::FoldCacheEntry& entry,
                           std::uint32_t stream, std::int64_t delta);

    /** One (bank, line) of the cycle under evaluation; live when its
     *  stamp is the cycle's epoch. */
    struct LineSlot
    {
        std::uint64_t line = 0;
        std::uint64_t stamp = 0;
        std::uint32_t bank = 0;
    };

    /**
     * One memoized cycle shape. The key is the stream, rho0 = (first +
     * rho - base) mod period and each address's offset from the first,
     * reads then extra. Two cycles with equal keys differ by a whole
     * number of periods at every address, so every bank keeps its
     * distinct-line count and the cost is equal. The key is stored as
     * bytes [at, at + len) of the key area after the slots: the stream, rho0 as a varint,
     * then the offsets as runs of equal steps between consecutive
     * addresses, each a zigzag varint step and a varint length.
     * len == 0 marks a free slot; a key or cost that does not fit 16
     * bits is not stored.
     */
    struct ShapeSlot
    {
        std::uint16_t tag = 0; // high bits of the key's hash
        std::uint16_t at = 0;
        std::uint16_t len = 0;
        std::uint16_t cost = 0;
    };

    /**
     * Start counting one cycle's `addrs` accesses: a fresh epoch, and a
     * line set at most half full.
     */
    void beginCount(std::size_t addrs);

    LayoutModelConfig cfg_;
    std::array<StreamMap, 3> streams_; // ifmap, filter, ofmap
    std::uint64_t bandwidthPerBank_ = 1;
    Divider byPorts_;
    Cycle slowedCycles_ = 0;
    Cycle idealCycles_ = 0;
    Count conflictCycles_ = 0;
    // Distinct lines per bank of the cycle under evaluation: an
    // open-addressed set of exact (bank, line) pairs and per-bank line
    // counters, both valid only where stamped with the current epoch,
    // so a new cycle clears nothing. A 64-bit epoch never wraps.
    std::vector<LineSlot> lineSet_;
    std::uint32_t lineSetShift_ = 64;
    std::vector<std::uint32_t> bankLines_;
    std::vector<std::uint64_t> bankStamp_;
    std::uint64_t epoch_ = 0;
    // Per-layer cost vectors, pooled so steady-state replays allocate
    // nothing; cleared in beginLayer.
    /**
     * Memoized per-cycle costs of one stream. Under a replay shift
     * delta = t * period + rho (0 <= rho < period) every address keeps
     * the bank it has when shifted by rho alone, and every line moves
     * by the same amount, so each cycle's distinct lines per bank — its
     * cost — depend only on the capture fold, the stream (0 ifmap,
     * 1 filter, 2 ofmap) and rho. Accumulate reads repeat the write
     * addresses and add no line.
     */
    std::unordered_map<systolic::ReplayMemoKey, CostSpan,
                       systolic::ReplayMemoKeyHash>
        costIndex_;
    std::vector<std::uint32_t> costPool_;
    // Per-layer shape memo, one fixed allocation: an open-addressed
    // table of kShapeSlots slots, then kShapeBytes of key bytes.
    // Cleared in beginLayer; once either is full, new shapes are
    // evaluated directly.
    std::vector<ShapeSlot> shapeMemo_;
    std::size_t shapeEntries_ = 0;
    std::size_t shapeBytesUsed_ = 0;
    /** The key of the cycle under lookup. */
    std::vector<std::uint8_t> shapeKey_;
    Count shapeHits_ = 0;
    Count shapeMisses_ = 0;
    /** The fold announced by beginFold; a capture replays itself. */
    std::uint64_t foldRf_ = 0;
    std::uint64_t foldCf_ = 0;
    Count foldsMemoized_ = 0;
};

} // namespace scalesim::layout

#endif // SCALESIM_LAYOUT_LAYOUT_HH
