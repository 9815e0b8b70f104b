/**
 * @file
 * Unit tests for on-chip data layout modeling: the line/col/bank index
 * equations, layout constructors, and the bank-conflict evaluator's
 * slowdown properties (>= 1, fewer conflicts with more banks/ports,
 * layout sensitivity), golden A/B tests of the per-fold cost memo
 * against the per-address path, brute-force references of the
 * per-cycle cost (through the shape memo) and of whole passes, and
 * pinned whole-layer figures.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <tuple>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/workloads.hpp"
#include "energy/action_counts.hpp"
#include "layout/layout.hpp"
#include "sparse/pattern.hpp"
#include "systolic/demand.hpp"
#include "systolic/fold_cache.hpp"

using namespace scalesim;
using namespace scalesim::layout;
using namespace scalesim::systolic;

namespace
{

OperandMap
makeOperands(const GemmDims& gemm)
{
    MemoryConfig mem;
    return OperandMap(gemm, mem);
}

LayoutModelConfig
layoutCfg(std::uint32_t banks, std::uint32_t ports,
          std::uint32_t bandwidth)
{
    LayoutModelConfig cfg;
    cfg.enabled = true;
    cfg.banks = banks;
    cfg.portsPerBank = ports;
    cfg.onChipBandwidth = bandwidth;
    return cfg;
}

double
evaluate(const GemmDims& gemm, Dataflow df, std::uint32_t array,
         const LayoutModelConfig& cfg, LayoutScheme scheme)
{
    const OperandMap operands = makeOperands(gemm);
    DemandGenerator gen(gemm, df, array, array, operands);
    BankConflictEvaluator eval(cfg,
                               OperandLayouts::forGemm(gemm, cfg,
                                                       scheme));
    gen.run(eval);
    return eval.slowdown();
}

} // namespace

TEST(Layout2D, IndexEquations)
{
    // 8x8 operand, 2x4 line tiles.
    Layout2D l{8, 8, 2, 4};
    EXPECT_EQ(l.wordsPerLine(), 8u);
    EXPECT_EQ(l.lineTiles(), 8u);
    EXPECT_EQ(l.lineId(0, 0), 0u);
    EXPECT_EQ(l.lineId(0, 4), 1u);
    EXPECT_EQ(l.lineId(2, 0), 2u);
    EXPECT_EQ(l.lineId(7, 7), 7u);
    EXPECT_EQ(l.colId(0, 0), 0u);
    EXPECT_EQ(l.colId(0, 3), 3u);
    EXPECT_EQ(l.colId(1, 0), 4u);
    EXPECT_EQ(l.colId(1, 3), 7u);
}

TEST(Layout2D, Constructors)
{
    const auto rm = Layout2D::rowMajor(16, 64, 32);
    EXPECT_EQ(rm.rowStep, 1u);
    EXPECT_EQ(rm.colStep, 32u);
    const auto cm = Layout2D::colMajor(16, 64, 32);
    EXPECT_EQ(cm.rowStep, 16u); // clamped to rows
    EXPECT_EQ(cm.colStep, 1u);
    const auto tl = Layout2D::tiled(64, 64, 16);
    EXPECT_EQ(tl.rowStep * tl.colStep, 16u);
}

TEST(Layout2D, ClampsToOperandDims)
{
    const auto rm = Layout2D::rowMajor(4, 8, 128);
    EXPECT_EQ(rm.colStep, 8u);
}

TEST(Evaluator, SlowdownAtLeastOne)
{
    const GemmDims gemm{32, 24, 40};
    for (auto df : {Dataflow::OutputStationary,
                    Dataflow::WeightStationary,
                    Dataflow::InputStationary}) {
        const double s = evaluate(gemm, df, 8,
                                  layoutCfg(16, 2, 64),
                                  LayoutScheme::RowMajor);
        EXPECT_GE(s, 1.0) << toString(df);
    }
}

TEST(Evaluator, MoreBanksNeverWorse)
{
    // Paper §VI: at fixed total bandwidth, more banks reduce the
    // slowdown.
    const GemmDims gemm{64, 48, 80};
    const double few = evaluate(gemm, Dataflow::OutputStationary, 16,
                                layoutCfg(2, 1, 64),
                                LayoutScheme::RowMajor);
    const double many = evaluate(gemm, Dataflow::OutputStationary, 16,
                                 layoutCfg(32, 1, 64),
                                 LayoutScheme::RowMajor);
    EXPECT_LE(many, few);
    EXPECT_GT(few, 1.0);
}

TEST(Evaluator, MorePortsNeverWorse)
{
    const GemmDims gemm{64, 48, 80};
    const double one = evaluate(gemm, Dataflow::OutputStationary, 16,
                                layoutCfg(4, 1, 64),
                                LayoutScheme::RowMajor);
    const double four = evaluate(gemm, Dataflow::OutputStationary, 16,
                                 layoutCfg(4, 4, 64),
                                 LayoutScheme::RowMajor);
    EXPECT_LE(four, one);
}

TEST(Evaluator, LayoutMatters)
{
    // A column of an operand requested in one cycle: row-major lines
    // put every element in a different line of the same bank (8-way
    // conflict); column-major packs them into one line (no conflict).
    const GemmDims gemm{64, 64, 64};
    const OperandMap operands = makeOperands(gemm);
    const LayoutModelConfig cfg = layoutCfg(4, 1, 32);
    const systolic::FoldGrid grid(gemm, Dataflow::OutputStationary, 8,
                                  8);
    std::vector<Addr> column;
    for (std::uint64_t r = 0; r < 8; ++r)
        column.push_back(operands.ifmapAddr(r, 5)); // fixed k column

    OperandLayouts rm = OperandLayouts::forGemm(
        gemm, cfg, LayoutScheme::RowMajor);
    BankConflictEvaluator rm_eval(cfg, rm);
    rm_eval.beginLayer(grid, operands);
    rm_eval.cycle(0, column, {}, {}, {});

    OperandLayouts cm = OperandLayouts::forGemm(
        gemm, cfg, LayoutScheme::ColMajor);
    BankConflictEvaluator cm_eval(cfg, cm);
    cm_eval.beginLayer(grid, operands);
    cm_eval.cycle(0, column, {}, {}, {});

    EXPECT_EQ(cm_eval.slowedCycles(), 1u);
    EXPECT_GT(rm_eval.slowedCycles(), cm_eval.slowedCycles());
}

TEST(Evaluator, IdleCyclesCostOne)
{
    // A layer's slowed cycles can never be less than its ideal cycles.
    const GemmDims gemm{16, 16, 16};
    const OperandMap operands = makeOperands(gemm);
    DemandGenerator gen(gemm, Dataflow::WeightStationary, 8, 8,
                        operands);
    const LayoutModelConfig cfg = layoutCfg(64, 4, 256);
    BankConflictEvaluator eval(
        cfg, OperandLayouts::forGemm(gemm, cfg, LayoutScheme::RowMajor));
    gen.run(eval);
    EXPECT_GE(eval.slowedCycles(), eval.idealCycles());
    EXPECT_EQ(eval.idealCycles(), gen.grid().totalCycles());
}

TEST(Evaluator, ConflictCyclesBounded)
{
    const GemmDims gemm{32, 32, 32};
    const OperandMap operands = makeOperands(gemm);
    DemandGenerator gen(gemm, Dataflow::OutputStationary, 16, 16,
                        operands);
    const LayoutModelConfig cfg = layoutCfg(2, 1, 16);
    BankConflictEvaluator eval(
        cfg, OperandLayouts::forGemm(gemm, cfg, LayoutScheme::RowMajor));
    gen.run(eval);
    EXPECT_LE(eval.conflictCycles(), gen.grid().totalCycles());
    EXPECT_GT(eval.conflictCycles(), 0u);
}

class BankSweep : public ::testing::TestWithParam<std::uint32_t>
{
};

TEST_P(BankSweep, MonotoneImprovementTrend)
{
    const GemmDims gemm{48, 48, 48};
    const double s = evaluate(gemm, Dataflow::OutputStationary, 16,
                              layoutCfg(GetParam(), 1, 64),
                              LayoutScheme::RowMajor);
    EXPECT_GE(s, 1.0);
    // With max banks (= bandwidth) conflicts all but vanish.
    if (GetParam() >= 64) {
        EXPECT_LT(s, 1.6);
    }
}

INSTANTIATE_TEST_SUITE_P(Banks, BankSweep,
                         ::testing::Values(1u, 2u, 4u, 8u, 16u, 32u,
                                           64u),
                         [](const auto& tpi) {
                             return format("b%u", tpi.param);
                         });

namespace
{

const char*
schemeName(LayoutScheme scheme)
{
    switch (scheme) {
      case LayoutScheme::RowMajor:
        return "RowMajor";
      case LayoutScheme::ColMajor:
        return "ColMajor";
      case LayoutScheme::Tiled:
        return "Tiled";
    }
    return "?";
}

/** Bank-conflict totals of one demand pass. */
struct LayoutPass
{
    Cycle slowed = 0;
    Count conflicts = 0;
    Count foldsMemoized = 0;
    FoldCacheStats cache;
};

/** Layout sink and the demand pass feeding it, for one shape. */
struct LayoutCase
{
    GemmDims gemm;
    OperandMap operands;
    Dataflow df = Dataflow::OutputStationary;
    std::uint32_t array = 8;
    LayoutModelConfig cfg;
    LayoutScheme scheme = LayoutScheme::RowMajor;
    const KGatherMap* gather = nullptr;

    /**
     * Run the pass with the evaluator and, if given, `other` behind a
     * TeeVisitor.
     */
    LayoutPass
    run(bool cached, DemandVisitor* other = nullptr) const
    {
        DemandGenerator gen(gemm, df, array, array, operands, gather);
        gen.setFoldCache(cached);
        BankConflictEvaluator eval(
            cfg, OperandLayouts::forOperands(operands, cfg, scheme));
        if (other) {
            TeeVisitor tee({&eval, other});
            gen.run(tee);
        } else {
            gen.run(eval);
        }
        return {eval.slowedCycles(), eval.conflictCycles(),
                eval.foldsMemoized(), gen.foldCacheStats()};
    }

    /** Memoized cached pass vs the per-address uncached reference. */
    LayoutPass
    expectMemoEquivalent() const
    {
        const LayoutPass cached = run(true);
        const LayoutPass live = run(false);
        EXPECT_EQ(cached.slowed, live.slowed);
        EXPECT_EQ(cached.conflicts, live.conflicts);
        EXPECT_EQ(live.foldsMemoized, 0u);
        EXPECT_EQ(cached.foldsMemoized, cached.cache.foldsReplayed);
        return cached;
    }
};

/** (dataflow, scheme) */
using MemoShape = std::tuple<Dataflow, LayoutScheme>;

class LayoutMemoAb : public ::testing::TestWithParam<MemoShape>
{
  protected:
    LayoutCase
    gemmCase(const GemmDims& gemm, const LayoutModelConfig& cfg) const
    {
        LayoutCase c;
        c.gemm = gemm;
        c.operands = makeOperands(gemm);
        c.df = std::get<0>(GetParam());
        c.cfg = cfg;
        c.scheme = std::get<1>(GetParam());
        return c;
    }
    LayoutCase
    convCase(const LayerSpec& layer, const LayoutModelConfig& cfg) const
    {
        LayoutCase c = gemmCase(layer.toGemm(), cfg);
        c.operands = OperandMap::forLayer(layer, MemoryConfig{});
        return c;
    }
};

} // namespace

TEST_P(LayoutMemoAb, RaggedGemm)
{
    gemmCase({27, 19, 13}, layoutCfg(8, 1, 64)).expectMemoEquivalent();
}

TEST_P(LayoutMemoAb, FullFoldGemmMemoizes)
{
    const LayoutPass cached =
        gemmCase({32, 16, 24}, layoutCfg(4, 2, 24)).expectMemoEquivalent();
    EXPECT_GT(cached.foldsMemoized, 0u);
}

TEST_P(LayoutMemoAb, StridedConv)
{
    const LayerSpec layer = LayerSpec::conv("c", 16, 16, 3, 3, 4, 8, 2);
    convCase(layer, layoutCfg(16, 1, 100)).expectMemoEquivalent();
}

TEST_P(LayoutMemoAb, BatchedConv)
{
    const LayerSpec layer =
        LayerSpec::conv("c", 10, 10, 3, 3, 4, 8, 1).withBatch(2);
    const LayoutPass cached =
        convCase(layer, layoutCfg(32, 1, 256)).expectMemoEquivalent();
    EXPECT_GT(cached.foldsMemoized, 0u);
}

TEST_P(LayoutMemoAb, LinesAgainstThousandWordRows)
{
    // Row-major lines of 24, 7 and 32 words do not tile the 1000-word
    // filter and ofmap rows, so their period is a whole row; lines of
    // 100 words do, and their period is one line. Either way replay
    // shifts land on several offsets within a period.
    const GemmDims gemm{24, 20, 1000};
    for (const LayoutModelConfig& cfg :
         {layoutCfg(4, 2, 24), layoutCfg(3, 1, 7), layoutCfg(16, 1, 100),
          layoutCfg(32, 1, 32)}) {
        SCOPED_TRACE(format("bandwidth %u", cfg.onChipBandwidth));
        gemmCase(gemm, cfg).expectMemoEquivalent();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDataflows, LayoutMemoAb,
    ::testing::Combine(::testing::Values(Dataflow::OutputStationary,
                                         Dataflow::WeightStationary,
                                         Dataflow::InputStationary),
                       ::testing::Values(LayoutScheme::RowMajor,
                                         LayoutScheme::ColMajor,
                                         LayoutScheme::Tiled)),
    [](const auto& tpi) {
        return toString(std::get<0>(tpi.param)) + "_"
            + schemeName(std::get<1>(tpi.param));
    });

TEST(LayoutMemo, SparseWsGather)
{
    const GemmDims dense{48, 24, 32};
    const auto pattern = sparse::SparsityPattern::layerWise(dense.k, 2, 4);
    for (LayoutScheme scheme : {LayoutScheme::RowMajor,
                                LayoutScheme::ColMajor,
                                LayoutScheme::Tiled}) {
        SCOPED_TRACE(schemeName(scheme));
        LayoutCase c;
        c.gemm = dense;
        c.operands = makeOperands(dense);
        c.df = Dataflow::WeightStationary;
        c.cfg = layoutCfg(4, 1, 24);
        c.scheme = scheme;
        c.gather = &pattern;
        EXPECT_GT(c.expectMemoEquivalent().foldsMemoized, 0u);
    }
}

TEST(LayoutMemo, TeeWithActionCounterBothConsume)
{
    LayoutCase c;
    c.gemm = {40, 36, 20};
    c.operands = makeOperands(c.gemm);
    c.df = Dataflow::WeightStationary;
    c.cfg = layoutCfg(4, 2, 24);
    energy::ActionCountVisitor cached_actions(EnergyConfig{});
    energy::ActionCountVisitor live_actions(EnergyConfig{});
    const LayoutPass cached = c.run(true, &cached_actions);
    const LayoutPass live = c.run(false, &live_actions);
    EXPECT_EQ(cached.slowed, live.slowed);
    EXPECT_EQ(cached.conflicts, live.conflicts);
    EXPECT_GT(cached.foldsMemoized, 0u);
    EXPECT_EQ(cached.foldsMemoized, cached.cache.foldsReplayed);
    EXPECT_EQ(cached_actions.foldsSummarized(), cached.foldsMemoized);
    const energy::ActionCounts& a = cached_actions.counts();
    const energy::ActionCounts& b = live_actions.counts();
    for (const auto sram : {&energy::ActionCounts::ifmapSram,
                            &energy::ActionCounts::filterSram,
                            &energy::ActionCounts::ofmapSram}) {
        EXPECT_EQ((a.*sram).readRandom, (b.*sram).readRandom);
        EXPECT_EQ((a.*sram).readRepeat, (b.*sram).readRepeat);
        EXPECT_EQ((a.*sram).writeRandom, (b.*sram).writeRandom);
        EXPECT_EQ((a.*sram).writeRepeat, (b.*sram).writeRepeat);
    }
}

TEST(LayoutMemo, TeeWithDecliningSinkStillFeedsItAddresses)
{
    LayoutCase c;
    c.gemm = {40, 36, 20};
    c.operands = makeOperands(c.gemm);
    c.df = Dataflow::InputStationary;
    c.cfg = layoutCfg(3, 1, 7);
    CountingVisitor cached_counts;
    CountingVisitor live_counts;
    const LayoutPass cached = c.run(true, &cached_counts);
    const LayoutPass live = c.run(false, &live_counts);
    EXPECT_EQ(cached.slowed, live.slowed);
    EXPECT_EQ(cached.conflicts, live.conflicts);
    EXPECT_GT(cached.foldsMemoized, 0u);
    EXPECT_EQ(cached.foldsMemoized, cached.cache.foldsReplayed);
    EXPECT_EQ(cached_counts.ifmapReads, live_counts.ifmapReads);
    EXPECT_EQ(cached_counts.filterReads, live_counts.filterReads);
    EXPECT_EQ(cached_counts.ofmapReads, live_counts.ofmapReads);
    EXPECT_EQ(cached_counts.ofmapWrites, live_counts.ofmapWrites);
    EXPECT_EQ(cached_counts.activeCycles, live_counts.activeCycles);
}

namespace
{

/**
 * Brute-force cost of one operand's accesses in one cycle, straight
 * from the paper's definition: each address's (line, col) from
 * Layout2D, its bank from the column, the distinct (bank, line) pairs,
 * then the busiest bank's lines over its ports.
 */
std::uint64_t
referenceCost(const Layout2D& layout, Addr base, std::uint64_t row_width,
              const LayoutModelConfig& cfg,
              std::initializer_list<std::span<const Addr>> spans)
{
    const std::uint64_t per_bank =
        std::max<std::uint64_t>(1, cfg.onChipBandwidth / cfg.banks);
    std::set<std::pair<std::uint64_t, std::uint64_t>> lines;
    for (std::span<const Addr> span : spans) {
        for (Addr addr : span) {
            const std::uint64_t off = addr - base;
            const std::uint64_t r = off / row_width;
            const std::uint64_t c = off % row_width;
            const std::uint64_t col = layout.colId(r, c);
            lines.emplace((col / per_bank) % cfg.banks,
                          layout.lineId(r, c));
        }
    }
    std::map<std::uint64_t, std::uint64_t> per_bank_lines;
    std::uint64_t worst = 0;
    for (const auto& [bank, line] : lines)
        worst = std::max(worst, ++per_bank_lines[bank]);
    return ceilDiv(worst, cfg.portsPerBank);
}

/**
 * Random addresses of a rows x row_width operand at `base`: uniform
 * offsets, offsets at the edges of rows and of lines, and repeats of
 * earlier addresses.
 */
std::vector<Addr>
randomSpan(Rng& rng, const Layout2D& layout, Addr base,
           std::uint64_t rows, std::uint64_t row_width)
{
    std::vector<Addr> span(rng.below(48));
    for (std::size_t i = 0; i < span.size(); ++i) {
        std::uint64_t r = rng.below(rows);
        std::uint64_t c = rng.below(row_width);
        switch (rng.below(5)) {
          case 0: // row edges
            c = rng.below(2) ? 0 : row_width - 1;
            break;
          case 1: // line edges along the row
            c = std::min(row_width - 1,
                         rng.below(ceilDiv(row_width, layout.colStep))
                                 * layout.colStep
                             + rng.below(2));
            if (c > 0 && rng.below(2))
                --c;
            break;
          case 2: // line edges across rows
            r = std::min(rows - 1,
                         rng.below(ceilDiv(rows, layout.rowStep))
                             * layout.rowStep);
            if (r > 0 && rng.below(2))
                --r;
            break;
          case 3: // a repeat
            if (i > 0) {
                span[i] = span[rng.below(i)];
                continue;
            }
            break;
          default:
            break;
        }
        span[i] = base + r * row_width + c;
    }
    return span;
}

} // namespace

TEST(LayoutReference, CycleCostMatchesBruteForce)
{
    // A conv ifmap row (W * C = 14 * 24 words) and 300-word GEMM rows
    // that lines of every tested width wrap or split unevenly.
    const LayerSpec conv = LayerSpec::conv("c", 14, 14, 3, 3, 24, 19, 2);
    const GemmDims gemm{23, 300, 130};
    const std::pair<GemmDims, OperandMap> shapes[] = {
        {conv.toGemm(), OperandMap::forLayer(conv, MemoryConfig{})},
        {gemm, makeOperands(gemm)},
    };
    Rng rng(0x1a7u);
    for (const auto& [dims, operands] : shapes) {
        const FoldGrid grid(dims, Dataflow::OutputStationary, 8, 8);
        for (LayoutScheme scheme : {LayoutScheme::RowMajor,
                                    LayoutScheme::ColMajor,
                                    LayoutScheme::Tiled}) {
            for (std::uint32_t banks : {1u, 3u, 7u, 32u}) {
                for (std::uint32_t bandwidth : {7u, 24u, 100u, 256u}) {
                    for (std::uint32_t ports : {1u, 2u, 3u}) {
                        SCOPED_TRACE(format("%s banks %u bw %u ports %u",
                                            schemeName(scheme), banks,
                                            bandwidth, ports));
                        const LayoutModelConfig cfg =
                            layoutCfg(banks, ports, bandwidth);
                        const OperandLayouts layouts =
                            OperandLayouts::forOperands(operands, cfg,
                                                        scheme);
                        BankConflictEvaluator eval(cfg, layouts);
                        eval.beginLayer(grid, operands);
                        for (Cycle clk = 0; clk < 40; ++clk) {
                            const auto ifmap = randomSpan(
                                rng, layouts.ifmap, operands.ifmapBase,
                                operands.ifmapRows(),
                                operands.ifmapRowWidth());
                            const auto filter = randomSpan(
                                rng, layouts.filter, operands.filterBase,
                                dims.k, dims.n);
                            const auto writes = randomSpan(
                                rng, layouts.ofmap, operands.ofmapBase,
                                dims.m, dims.n);
                            // Accumulating folds read what they write.
                            const auto reads = rng.below(2)
                                ? writes
                                : randomSpan(rng, layouts.ofmap,
                                             operands.ofmapBase, dims.m,
                                             dims.n);
                            const std::uint64_t expected = std::max(
                                {std::uint64_t{1},
                                 referenceCost(layouts.ifmap,
                                               operands.ifmapBase,
                                               operands.ifmapRowWidth(),
                                               cfg, {ifmap}),
                                 referenceCost(layouts.filter,
                                               operands.filterBase,
                                               dims.n, cfg, {filter}),
                                 referenceCost(layouts.ofmap,
                                               operands.ofmapBase,
                                               dims.n, cfg,
                                               {reads, writes})});
                            const Cycle before = eval.slowedCycles();
                            eval.cycle(clk, ifmap, filter, reads, writes);
                            ASSERT_EQ(eval.slowedCycles() - before,
                                      expected)
                                << "cycle " << clk;
                        }
                    }
                }
            }
        }
    }
}

namespace
{

/** One cycle's spans, in cycle() order. */
struct CycleSpans
{
    std::vector<Addr> ifmap;
    std::vector<Addr> filter;
    std::vector<Addr> reads;
    std::vector<Addr> writes;
};

std::vector<Addr>
shifted(const std::vector<Addr>& span, std::uint64_t delta)
{
    std::vector<Addr> out(span);
    for (Addr& a : out)
        a += delta;
    return out;
}

/** `span`'s offsets from its lowest address, placed at `base`. */
std::vector<Addr>
rebased(std::vector<Addr> span, Addr base)
{
    if (span.empty())
        return span;
    const Addr low = *std::min_element(span.begin(), span.end());
    for (Addr& a : span)
        a = a - low + base;
    return span;
}

/** Put the highest address first, so the first is not the lowest. */
void
highestFirst(std::vector<Addr>& span)
{
    if (!span.empty())
        std::iter_swap(span.begin(),
                       std::max_element(span.begin(), span.end()));
}

} // namespace

TEST(LayoutReference, ShapeMemoMatchesBruteForce)
{
    // Every cycle of random spans is fed live, then with its writes
    // moved against its reads, shifted by whole periods (equal shapes),
    // and as one-cycle replayed folds at sub-period shifts, from its own
    // addresses and from addresses one period up (equal shapes at a
    // non-zero rho). Spans re-based into another stream repeat the
    // offsets and rho0 under another layout. The first address of each
    // span is its highest, and a third of the ofmap cycles have writes
    // but no reads. Every cost must equal the brute-force reference.
    const LayerSpec conv = LayerSpec::conv("c", 14, 14, 3, 3, 24, 19, 2);
    const GemmDims gemm{23, 300, 130};
    const std::pair<GemmDims, OperandMap> shapes[] = {
        {conv.toGemm(), OperandMap::forLayer(conv, MemoryConfig{})},
        {gemm, makeOperands(gemm)},
    };
    Rng rng(0x5ea9u);
    for (const auto& [dims, operands] : shapes) {
        const FoldGrid grid(dims, Dataflow::OutputStationary, 8, 8);
        const Addr bases[] = {operands.ifmapBase, operands.filterBase,
                              operands.ofmapBase};
        const std::uint64_t widths[] = {operands.ifmapRowWidth(), dims.n,
                                        dims.n};
        const std::uint64_t rows[] = {operands.ifmapRows(), dims.k,
                                      dims.m};
        for (LayoutScheme scheme : {LayoutScheme::RowMajor,
                                    LayoutScheme::ColMajor,
                                    LayoutScheme::Tiled}) {
            for (std::uint32_t banks : {1u, 3u, 7u, 32u}) {
                for (std::uint32_t bandwidth : {7u, 24u, 100u, 256u}) {
                    for (std::uint32_t ports : {1u, 2u, 3u}) {
                        SCOPED_TRACE(format("%s banks %u bw %u ports %u",
                                            schemeName(scheme), banks,
                                            bandwidth, ports));
                        const LayoutModelConfig cfg =
                            layoutCfg(banks, ports, bandwidth);
                        const OperandLayouts layouts =
                            OperandLayouts::forOperands(operands, cfg,
                                                        scheme);
                        const Layout2D* const maps[] = {
                            &layouts.ifmap, &layouts.filter,
                            &layouts.ofmap};
                        // rowStep rows always shift every line evenly.
                        std::uint64_t periods[3];
                        for (std::size_t s = 0; s < 3; ++s)
                            periods[s] = maps[s]->rowStep * widths[s];
                        auto reference = [&](std::size_t s,
                                             std::initializer_list<
                                                 std::span<const Addr>>
                                                 spans) {
                            return referenceCost(*maps[s], bases[s],
                                                 widths[s], cfg, spans);
                        };
                        auto expected = [&](const CycleSpans& c) {
                            return std::max(
                                {std::uint64_t{1},
                                 reference(0, {c.ifmap}),
                                 reference(1, {c.filter}),
                                 reference(2, {c.reads, c.writes})});
                        };
                        BankConflictEvaluator eval(cfg, layouts);
                        eval.beginLayer(grid, operands);
                        Cycle clk = 0;
                        auto live = [&](const CycleSpans& c) {
                            const Cycle before = eval.slowedCycles();
                            eval.cycle(clk, c.ifmap, c.filter, c.reads,
                                       c.writes);
                            ASSERT_EQ(eval.slowedCycles() - before,
                                      expected(c))
                                << "live cycle " << clk;
                        };
                        // A replayed fold's cost vectors are memoized
                        // by capture fold, so each replay is a new one.
                        std::uint64_t fold = 0;
                        auto replay = [&](const CycleSpans& c,
                                          const std::uint64_t (&rho)[3]) {
                            FoldCacheEntry entry;
                            entry.rf = ++fold;
                            FoldCaptureVisitor(entry).cycle(
                                0, c.ifmap, c.filter, {}, c.writes);
                            const CycleSpans moved{
                                shifted(c.ifmap, rho[0]),
                                shifted(c.filter, rho[1]),
                                {},
                                shifted(c.writes, rho[2])};
                            const Cycle before = eval.slowedCycles();
                            eval.replayFold(
                                entry, 0,
                                {static_cast<std::int64_t>(rho[0]),
                                 static_cast<std::int64_t>(rho[1]),
                                 static_cast<std::int64_t>(rho[2])},
                                false);
                            ASSERT_EQ(eval.slowedCycles() - before,
                                      expected(moved))
                                << "replay at cycle " << clk;
                        };
                        for (; clk < 40; ++clk) {
                            CycleSpans c;
                            c.ifmap = randomSpan(rng, layouts.ifmap,
                                                 bases[0], rows[0],
                                                 widths[0]);
                            c.filter = randomSpan(rng, layouts.filter,
                                                  bases[1], rows[1],
                                                  widths[1]);
                            c.writes = randomSpan(rng, layouts.ofmap,
                                                  bases[2], rows[2],
                                                  widths[2]);
                            highestFirst(c.ifmap);
                            highestFirst(c.filter);
                            highestFirst(c.writes);
                            switch (rng.below(3)) {
                              case 0: // accumulating folds
                                c.reads = c.writes;
                                break;
                              case 1:
                                c.reads = randomSpan(rng, layouts.ofmap,
                                                     bases[2], rows[2],
                                                     widths[2]);
                                break;
                              default: // writes alone
                                break;
                            }
                            live(c);
                            // The same spans with the writes moved
                            // against the reads: one shape per stream
                            // span, another for the cycle.
                            if (!c.reads.empty()) {
                                live({c.ifmap, c.filter, c.reads,
                                      shifted(c.writes,
                                              1 + rng.below(periods[2]))});
                            }
                            for (std::uint64_t t : {1u, 3u}) {
                                live({shifted(c.ifmap, t * periods[0]),
                                      shifted(c.filter, t * periods[1]),
                                      shifted(c.reads, t * periods[2]),
                                      shifted(c.writes, t * periods[2])});
                            }
                            const std::uint64_t rho[3] = {
                                rng.below(periods[0]),
                                rng.below(periods[1]),
                                rng.below(periods[2])};
                            replay(c, rho);
                            replay({shifted(c.ifmap, periods[0]),
                                    shifted(c.filter, periods[1]),
                                    {},
                                    shifted(c.writes, periods[2])},
                                   rho);
                            // The ifmap's offsets from each stream's
                            // base: one key but for the stream.
                            live({rebased(c.ifmap, bases[0]),
                                  rebased(c.ifmap, bases[1]), {},
                                  rebased(c.ifmap, bases[2])});
                        }
                        EXPECT_GT(eval.shapeHits(), 0u);
                        EXPECT_GT(eval.shapeMisses(), 0u);
                    }
                }
            }
        }
    }
}

namespace
{

/**
 * The paper's cost of every cycle a demand pass emits, address by
 * address through referenceCost; declines replayed folds, so a tee
 * feeds it their cycles.
 */
class ReferenceCostVisitor : public DemandVisitor
{
  public:
    ReferenceCostVisitor(const LayoutModelConfig& cfg,
                         const OperandLayouts& layouts)
        : cfg_(cfg), layouts_(layouts)
    {
    }

    void
    beginLayer(const FoldGrid&, const OperandMap& operands) override
    {
        operands_ = operands;
    }

    void
    cycle(Cycle, std::span<const Addr> ifmap_reads,
          std::span<const Addr> filter_reads,
          std::span<const Addr> ofmap_reads,
          std::span<const Addr> ofmap_writes) override
    {
        const std::uint64_t n = operands_.dims.n;
        const std::uint64_t cost = std::max(
            {std::uint64_t{1},
             referenceCost(layouts_.ifmap, operands_.ifmapBase,
                           operands_.ifmapRowWidth(), cfg_, {ifmap_reads}),
             referenceCost(layouts_.filter, operands_.filterBase, n, cfg_,
                           {filter_reads}),
             referenceCost(layouts_.ofmap, operands_.ofmapBase, n, cfg_,
                           {ofmap_reads, ofmap_writes})});
        slowed += cost;
        conflicts += cost > 1;
    }

    Cycle slowed = 0;
    Count conflicts = 0;

  private:
    LayoutModelConfig cfg_;
    OperandLayouts layouts_;
    OperandMap operands_;
};

} // namespace

TEST(LayoutReference, LiveFoldsMatchBruteForce)
{
    // A ragged GEMM and a strided conv, every fold live and then fold
    // cached: the evaluator's whole-pass totals equal the per-address
    // reference's.
    const LayerSpec conv = LayerSpec::conv("c", 16, 16, 3, 3, 4, 8, 2);
    const GemmDims gemm{27, 19, 13};
    const std::tuple<GemmDims, OperandMap, LayoutModelConfig> cases[] = {
        {gemm, makeOperands(gemm), layoutCfg(8, 1, 64)},
        {conv.toGemm(), OperandMap::forLayer(conv, MemoryConfig{}),
         layoutCfg(16, 1, 100)},
    };
    for (const auto& [dims, operands, cfg] : cases) {
        for (Dataflow df : {Dataflow::OutputStationary,
                            Dataflow::WeightStationary,
                            Dataflow::InputStationary}) {
            for (LayoutScheme scheme : {LayoutScheme::RowMajor,
                                        LayoutScheme::ColMajor,
                                        LayoutScheme::Tiled}) {
                for (bool cached : {false, true}) {
                    SCOPED_TRACE(format("%s %s %s", toString(df).c_str(),
                                        schemeName(scheme),
                                        cached ? "cached" : "live"));
                    LayoutCase c;
                    c.gemm = dims;
                    c.operands = operands;
                    c.df = df;
                    c.cfg = cfg;
                    c.scheme = scheme;
                    ReferenceCostVisitor reference(
                        cfg, OperandLayouts::forOperands(operands, cfg,
                                                         scheme));
                    const LayoutPass pass = c.run(cached, &reference);
                    EXPECT_EQ(pass.slowed, reference.slowed);
                    EXPECT_EQ(pass.conflicts, reference.conflicts);
                }
            }
        }
    }
}

namespace
{

/** Slowed and conflict cycles of one layer. */
struct GoldenCycles
{
    Cycle slowed = 0;
    Count conflicts = 0;
};

/** One layer on a 32x32 array through the fold-cached demand pass. */
GoldenCycles
layerCycles(const LayerSpec& layer, Dataflow df,
            const LayoutModelConfig& cfg, LayoutScheme scheme,
            const KGatherMap* gather = nullptr)
{
    LayoutCase c;
    c.gemm = layer.toGemm();
    c.operands = OperandMap::forLayer(layer, MemoryConfig{});
    c.df = df;
    c.array = 32;
    c.cfg = cfg;
    c.scheme = scheme;
    c.gather = gather;
    const LayoutPass pass = c.run(true);
    return {pass.slowed, pass.conflicts};
}

void
expectGolden(const GoldenCycles& got, const GoldenCycles& want)
{
    EXPECT_EQ(got.slowed, want.slowed);
    EXPECT_EQ(got.conflicts, want.conflicts);
}

} // namespace

// The pinned figures below were captured from the sort-based evaluator
// (std::sort + unique over (bank, line) pairs, hardware division per
// address); the evaluator must reproduce them exactly.

TEST(LayoutGolden, VitBaseFirstLayers)
{
    // The benchmark's setting: 32 banks, 256 words per cycle.
    const Topology vit = workloads::byName("vit_base");
    const GoldenCycles want[] = {
        {567912, 142728},  // patch_embed
        {1705176, 428472}, // attn_qkv
        {26988, 6945},     // attn_scores
        {15390, 3908},     // attn_context
    };
    for (std::size_t i = 0; i < std::size(want); ++i) {
        SCOPED_TRACE(vit.layers[i].name);
        expectGolden(layerCycles(vit.layers[i], Dataflow::OutputStationary,
                                 layoutCfg(32, 2, 256),
                                 LayoutScheme::RowMajor),
                     want[i]);
    }
}

TEST(LayoutGolden, StridedResNet18Conv)
{
    const LayerSpec layer = workloads::resnet18().layers[10]; // conv4_1a
    ASSERT_EQ(layer.name, "conv4_1a");
    const std::pair<LayoutScheme, GoldenCycles> want[] = {
        {LayoutScheme::RowMajor, {236280, 59240}},
        {LayoutScheme::ColMajor, {686336, 59232}},
        {LayoutScheme::Tiled, {257936, 57080}},
    };
    for (const auto& [scheme, cycles] : want) {
        SCOPED_TRACE(schemeName(scheme));
        expectGolden(layerCycles(layer, Dataflow::OutputStationary,
                                 layoutCfg(16, 2, 128), scheme),
                     cycles);
    }
}

TEST(LayoutGolden, SparseWsGather)
{
    const LayerSpec layer = LayerSpec::gemm("g", 96, 80, 128);
    const auto pattern = sparse::SparsityPattern::layerWise(128, 2, 4);
    const std::pair<LayoutScheme, GoldenCycles> want[] = {
        {LayoutScheme::RowMajor, {6634, 1094}},
        {LayoutScheme::ColMajor, {11160, 1096}},
        {LayoutScheme::Tiled, {7424, 1061}},
    };
    for (const auto& [scheme, cycles] : want) {
        SCOPED_TRACE(schemeName(scheme));
        expectGolden(layerCycles(layer, Dataflow::WeightStationary,
                                 layoutCfg(7, 1, 24), scheme, &pattern),
                     cycles);
    }
}
