/**
 * @file
 * Property tests for the per-cycle demand generator: conservation
 * against the closed-form access counts, address-range validity,
 * write-once semantics, skew timing, and sparse gathering.
 */

#include <gtest/gtest.h>

#include <map>
#include <set>
#include <vector>

#include "common/log.hpp"
#include "common/workloads.hpp"
#include "sparse/pattern.hpp"
#include "systolic/demand.hpp"

using namespace scalesim;
using namespace scalesim::systolic;

namespace
{

OperandMap
makeOperands(const GemmDims& gemm)
{
    MemoryConfig mem;
    return OperandMap(gemm, mem);
}

/** Collects every address with its cycle for detailed checks. */
class CollectingVisitor : public DemandVisitor
{
  public:
    void
    cycle(Cycle clk, std::span<const Addr> ifmap_reads,
          std::span<const Addr> filter_reads,
          std::span<const Addr> ofmap_reads,
          std::span<const Addr> ofmap_writes) override
    {
        for (Addr a : ifmap_reads)
            ifmap.emplace_back(clk, a);
        for (Addr a : filter_reads)
            filter.emplace_back(clk, a);
        for (Addr a : ofmap_reads)
            oreads.emplace_back(clk, a);
        for (Addr a : ofmap_writes)
            owrites.emplace_back(clk, a);
    }

    std::vector<std::pair<Cycle, Addr>> ifmap, filter, oreads, owrites;
};

} // namespace

class DemandCountsMatchClosedForm
    : public ::testing::TestWithParam<Dataflow>
{
};

TEST_P(DemandCountsMatchClosedForm, Conservation)
{
    const GemmDims gemm{37, 23, 51};
    DemandGenerator gen(gemm, GetParam(), 8, 4, makeOperands(gemm));
    CountingVisitor counter;
    gen.run(counter);
    const auto expect = gen.grid().sramAccessCounts();
    EXPECT_EQ(counter.ifmapReads, expect.ifmapReads);
    EXPECT_EQ(counter.filterReads, expect.filterReads);
    EXPECT_EQ(counter.ofmapWrites, expect.ofmapWrites);
    EXPECT_EQ(counter.ofmapReads, expect.ofmapReads);
    EXPECT_EQ(counter.lastCycle + 1, gen.grid().totalCycles());
}

INSTANTIATE_TEST_SUITE_P(
    AllDataflows, DemandCountsMatchClosedForm,
    ::testing::Values(Dataflow::OutputStationary,
                      Dataflow::WeightStationary,
                      Dataflow::InputStationary),
    [](const auto& tpi) { return toString(tpi.param); });

class DemandAddressesInRange : public ::testing::TestWithParam<Dataflow>
{
};

TEST_P(DemandAddressesInRange, Bounds)
{
    const GemmDims gemm{19, 13, 29};
    const OperandMap operands = makeOperands(gemm);
    DemandGenerator gen(gemm, GetParam(), 8, 8, operands);
    CollectingVisitor collect;
    gen.run(collect);
    for (const auto& [clk, a] : collect.ifmap) {
        EXPECT_GE(a, operands.ifmapBase);
        EXPECT_LT(a, operands.ifmapBase + gemm.m * gemm.k);
    }
    for (const auto& [clk, a] : collect.filter) {
        EXPECT_GE(a, operands.filterBase);
        EXPECT_LT(a, operands.filterBase + gemm.k * gemm.n);
    }
    for (const auto& [clk, a] : collect.owrites) {
        EXPECT_GE(a, operands.ofmapBase);
        EXPECT_LT(a, operands.ofmapBase + gemm.m * gemm.n);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllDataflows, DemandAddressesInRange,
    ::testing::Values(Dataflow::OutputStationary,
                      Dataflow::WeightStationary,
                      Dataflow::InputStationary),
    [](const auto& tpi) { return toString(tpi.param); });

TEST(DemandOs, EveryOutputWrittenExactlyOnce)
{
    const GemmDims gemm{20, 12, 15};
    const OperandMap operands = makeOperands(gemm);
    DemandGenerator gen(gemm, Dataflow::OutputStationary, 8, 8,
                        operands);
    CollectingVisitor collect;
    gen.run(collect);
    std::map<Addr, int> writes;
    for (const auto& [clk, a] : collect.owrites)
        ++writes[a];
    EXPECT_EQ(writes.size(), gemm.m * gemm.n);
    for (const auto& [addr, count] : writes)
        EXPECT_EQ(count, 1) << "address " << addr;
}

TEST(DemandOs, EveryOperandElementCovered)
{
    const GemmDims gemm{20, 12, 15};
    const OperandMap operands = makeOperands(gemm);
    DemandGenerator gen(gemm, Dataflow::OutputStationary, 8, 8,
                        operands);
    CollectingVisitor collect;
    gen.run(collect);
    std::set<Addr> ifmap_addrs;
    for (const auto& [clk, a] : collect.ifmap)
        ifmap_addrs.insert(a);
    EXPECT_EQ(ifmap_addrs.size(), gemm.m * gemm.k);
    std::set<Addr> filter_addrs;
    for (const auto& [clk, a] : collect.filter)
        filter_addrs.insert(a);
    EXPECT_EQ(filter_addrs.size(), gemm.k * gemm.n);
}

/**
 * Partial-fold edge cases for the OS drain: the drain schedule uses
 * the full physical arrayRows() for its timing but tile-local tr/tc
 * bounds, so ragged folds must still emit every output exactly once
 * within the fold. Each shape asserts total ofmap writes == M*N over
 * the whole fold grid, with no duplicates.
 */
struct OsFoldShape
{
    GemmDims gemm;
    std::uint32_t rows;
    std::uint32_t cols;
    // Last: ctest lists each case with a byte dump of this struct, and
    // leading with the shape keeps the start of that dump the same in
    // every build, where a string address would not.
    const char* label;
};

class DemandOsPartialFold
    : public ::testing::TestWithParam<OsFoldShape>
{
};

TEST_P(DemandOsPartialFold, DrainCoversAllOutputsOnce)
{
    const OsFoldShape& shape = GetParam();
    const GemmDims gemm = shape.gemm;
    const OperandMap operands = makeOperands(gemm);
    DemandGenerator gen(gemm, Dataflow::OutputStationary, shape.rows,
                        shape.cols, operands);
    CollectingVisitor collect;
    gen.run(collect);

    std::map<Addr, int> writes;
    for (const auto& [clk, a] : collect.owrites)
        ++writes[a];
    EXPECT_EQ(collect.owrites.size(), gemm.m * gemm.n);
    EXPECT_EQ(writes.size(), gemm.m * gemm.n);
    for (const auto& [addr, count] : writes)
        EXPECT_EQ(count, 1) << "address " << addr;
    for (const auto& [addr, count] : writes) {
        EXPECT_GE(addr, operands.ofmapBase);
        EXPECT_LT(addr, operands.ofmapBase + gemm.m * gemm.n);
    }
    // Every write lands inside the generated schedule.
    const auto& grid = gen.grid();
    for (const auto& [clk, a] : collect.owrites)
        EXPECT_LT(clk, grid.totalCycles());
}

INSTANTIATE_TEST_SUITE_P(
    PartialFolds, DemandOsPartialFold,
    ::testing::Values(
        // Ragged last fold on both axes: 10 = 8 + 2, 12 = 8 + 4.
        OsFoldShape{{10, 12, 16}, 8, 8, "ragged_last_fold"},
        // Whole layer narrower than the array: tr = 3 < R = 8.
        OsFoldShape{{3, 16, 16}, 8, 8, "tr_lt_rows"},
        // Whole layer shorter than the array: tc = 5 < C = 8.
        OsFoldShape{{16, 5, 16}, 8, 8, "tc_lt_cols"},
        // Temporal extent shorter than the fill: K = 4 < R = 8.
        OsFoldShape{{16, 16, 4}, 8, 8, "k_lt_rows"},
        // Everything at once: single partial fold, tiny K.
        OsFoldShape{{5, 3, 2}, 8, 8, "all_partial"},
        // 1x1 fold grid edge with exactly full tiles.
        OsFoldShape{{8, 8, 8}, 8, 8, "exact_tiles"},
        // Single row/column degenerate shapes.
        OsFoldShape{{1, 9, 7}, 8, 8, "m_is_one"},
        OsFoldShape{{9, 1, 7}, 8, 8, "n_is_one"}),
    [](const auto& tpi) { return std::string(tpi.param.label); });

TEST(DemandOs, SkewTiming)
{
    // Row r's first ifmap read happens at fold-local cycle r.
    const GemmDims gemm{8, 8, 10};
    const OperandMap operands = makeOperands(gemm);
    DemandGenerator gen(gemm, Dataflow::OutputStationary, 8, 8,
                        operands);
    CollectingVisitor collect;
    gen.run(collect);
    std::map<std::uint64_t, Cycle> first_read; // row -> cycle
    for (const auto& [clk, a] : collect.ifmap) {
        const std::uint64_t row = (a - operands.ifmapBase) / gemm.k;
        auto it = first_read.find(row);
        if (it == first_read.end() || clk < it->second)
            first_read[row] = clk;
    }
    for (const auto& [row, clk] : first_read)
        EXPECT_EQ(clk, row);
}

TEST(DemandWs, AccumulationReadsOnlyAfterFirstRowFold)
{
    const GemmDims gemm{10, 6, 40}; // K = 40 -> several row folds at R=8
    const OperandMap operands = makeOperands(gemm);
    DemandGenerator gen(gemm, Dataflow::WeightStationary, 8, 8,
                        operands);
    CountingVisitor counter;
    gen.run(counter);
    const auto& grid = gen.grid();
    ASSERT_GT(grid.rowFolds(), 1u);
    EXPECT_EQ(counter.ofmapWrites,
              gemm.m * gemm.n * grid.rowFolds());
    EXPECT_EQ(counter.ofmapReads,
              gemm.m * gemm.n * (grid.rowFolds() - 1));
}

TEST(DemandWs, FilterLoadedExactlyOnce)
{
    const GemmDims gemm{10, 12, 20};
    const OperandMap operands = makeOperands(gemm);
    DemandGenerator gen(gemm, Dataflow::WeightStationary, 8, 8,
                        operands);
    CollectingVisitor collect;
    gen.run(collect);
    std::map<Addr, int> loads;
    for (const auto& [clk, a] : collect.filter)
        ++loads[a];
    EXPECT_EQ(loads.size(), gemm.k * gemm.n);
    for (const auto& [addr, count] : loads)
        EXPECT_EQ(count, 1);
}

TEST(DemandSparse, GatherSkipsPrunedRows)
{
    const GemmDims gemm{16, 8, 32};
    const OperandMap operands = makeOperands(gemm);
    const auto pattern = sparse::SparsityPattern::layerWise(gemm.k, 1,
                                                            4);
    ASSERT_EQ(pattern.compressedK(), 8u);
    DemandGenerator gen(gemm, Dataflow::WeightStationary, 8, 8,
                        operands, &pattern);
    CollectingVisitor collect;
    gen.run(collect);
    // Ifmap reads may only touch kept (first-of-four) K columns.
    for (const auto& [clk, a] : collect.ifmap) {
        const std::uint64_t k = (a - operands.ifmapBase) % gemm.k;
        EXPECT_EQ(k % 4, 0u) << "read pruned k column " << k;
    }
    // Compressed run is shorter than the dense run.
    DemandGenerator dense(gemm, Dataflow::WeightStationary, 8, 8,
                          operands);
    EXPECT_LT(gen.totalCycles(), dense.totalCycles());
}

TEST(DemandSparse, NonWsIsRejected)
{
    const GemmDims gemm{16, 8, 32};
    const auto pattern = sparse::SparsityPattern::layerWise(gemm.k, 2,
                                                            4);
    EXPECT_THROW(DemandGenerator(gemm, Dataflow::OutputStationary, 8, 8,
                                 makeOperands(gemm), &pattern),
                 FatalError);
}

TEST(Demand, TeeVisitorFansOut)
{
    const GemmDims gemm{12, 8, 10};
    DemandGenerator gen(gemm, Dataflow::OutputStationary, 4, 4,
                        makeOperands(gemm));
    CountingVisitor a, b;
    TeeVisitor tee({&a, &b});
    gen.run(tee);
    EXPECT_GT(a.ifmapReads, 0u);
    EXPECT_EQ(a.ifmapReads, b.ifmapReads);
    EXPECT_EQ(a.ofmapWrites, b.ofmapWrites);
}

TEST(Demand, ActiveCyclesNeverExceedTotal)
{
    const GemmDims gemm{30, 20, 25};
    for (auto df : {Dataflow::OutputStationary,
                    Dataflow::WeightStationary,
                    Dataflow::InputStationary}) {
        DemandGenerator gen(gemm, df, 8, 8, makeOperands(gemm));
        CountingVisitor counter;
        gen.run(counter);
        EXPECT_LE(counter.activeCycles, gen.totalCycles());
        EXPECT_GT(counter.activeCycles, 0u);
    }
}

TEST(DemandConv, ImcolAddressesReuseWindows)
{
    // 8x8 ifmap, 3x3 filter, 2 channels, stride 1 -> 6x6 outputs.
    const LayerSpec layer = LayerSpec::conv("c", 8, 8, 3, 3, 2, 4, 1);
    MemoryConfig mem;
    const OperandMap operands = OperandMap::forLayer(layer, mem);
    ASSERT_TRUE(operands.conv);
    const GemmDims gemm = layer.toGemm();
    DemandGenerator gen(gemm, Dataflow::OutputStationary, 8, 4,
                        operands);
    CollectingVisitor collect;
    gen.run(collect);
    std::set<Addr> unique;
    for (const auto& [clk, a] : collect.ifmap) {
        EXPECT_GE(a, operands.ifmapBase);
        EXPECT_LT(a, operands.ifmapBase + 8 * 8 * 2);
        unique.insert(a);
    }
    // Every ifmap word is touched (3x3/stride-1 covers all pixels),
    // and the unique footprint is the real tensor, far below the
    // im2col-expanded M*K.
    EXPECT_EQ(unique.size(), 8u * 8u * 2u);
    EXPECT_LT(unique.size(), gemm.m * gemm.k);
    // Interior pixels are read multiple times (window overlap).
    EXPECT_GT(collect.ifmap.size(), unique.size());
}

TEST(DemandConv, StridedWindowsSkipPixels)
{
    // 3x3 filter with stride 3: windows tile without overlap, so the
    // read count equals the footprint exactly.
    const LayerSpec layer = LayerSpec::conv("c", 9, 9, 3, 3, 1, 2, 3);
    MemoryConfig mem;
    const OperandMap operands = OperandMap::forLayer(layer, mem);
    const GemmDims gemm = layer.toGemm();
    DemandGenerator gen(gemm, Dataflow::OutputStationary, 16, 2,
                        operands);
    CollectingVisitor collect;
    gen.run(collect);
    std::set<Addr> unique;
    for (const auto& [clk, a] : collect.ifmap)
        unique.insert(a);
    EXPECT_EQ(unique.size(), 9u * 9u);
    // colFolds = 1, so each element is streamed exactly once.
    EXPECT_EQ(collect.ifmap.size(), unique.size());
}

TEST(DemandConv, OneByOneConvMatchesGemm)
{
    // A 1x1 convolution is exactly a GEMM; the conv addressing must
    // produce the same unique footprint.
    const LayerSpec layer = LayerSpec::conv("c", 6, 6, 1, 1, 8, 4, 1);
    MemoryConfig mem;
    const OperandMap operands = OperandMap::forLayer(layer, mem);
    const GemmDims gemm = layer.toGemm();
    EXPECT_EQ(operands.ifmapWords(), gemm.m * gemm.k);
    DemandGenerator gen(gemm, Dataflow::WeightStationary, 8, 4,
                        operands);
    CollectingVisitor collect;
    gen.run(collect);
    std::set<Addr> unique;
    for (const auto& [clk, a] : collect.ifmap)
        unique.insert(a);
    EXPECT_EQ(unique.size(), gemm.m * gemm.k);
}

TEST(DemandConv, RowRangeHelper)
{
    const LayerSpec layer = LayerSpec::conv("c", 16, 16, 3, 3, 4, 8,
                                            1);
    MemoryConfig mem;
    const OperandMap operands = OperandMap::forLayer(layer, mem);
    // First output row, full K: ifmap rows 0..2.
    const auto [h0, h1] = operands.ifmapRowRange(0, 13, 0,
                                                 3 * 3 * 4 - 1);
    EXPECT_EQ(h0, 0u);
    EXPECT_EQ(h1, 2u);
    // All outputs: full ifmap height.
    const auto [a0, a1] = operands.ifmapRowRange(
        0, 14 * 14 - 1, 0, 3 * 3 * 4 - 1);
    EXPECT_EQ(a0, 0u);
    EXPECT_EQ(a1, 15u);
}

/** Conv demand conservation across dataflow x array shape. */
class ConvDemandSweep
    : public ::testing::TestWithParam<
          std::tuple<Dataflow, std::uint32_t, std::uint32_t>>
{
};

TEST_P(ConvDemandSweep, CountsMatchClosedFormOnConvLayers)
{
    const auto [df, rows, cols] = GetParam();
    const LayerSpec layer = LayerSpec::conv("c", 12, 12, 3, 3, 6, 10,
                                            1);
    MemoryConfig mem;
    const OperandMap operands = OperandMap::forLayer(layer, mem);
    DemandGenerator gen(layer.toGemm(), df, rows, cols, operands);
    CountingVisitor counter;
    gen.run(counter);
    const auto expect = gen.grid().sramAccessCounts();
    EXPECT_EQ(counter.ifmapReads, expect.ifmapReads);
    EXPECT_EQ(counter.filterReads, expect.filterReads);
    EXPECT_EQ(counter.ofmapWrites, expect.ofmapWrites);
    EXPECT_EQ(counter.ofmapReads, expect.ofmapReads);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvDemandSweep,
    ::testing::Combine(
        ::testing::Values(Dataflow::OutputStationary,
                          Dataflow::WeightStationary,
                          Dataflow::InputStationary),
        ::testing::Values(4u, 8u, 16u), ::testing::Values(4u, 8u)),
    [](const auto& tpi) {
        return toString(std::get<0>(tpi.param))
            + format("_r%u_c%u", std::get<1>(tpi.param),
                     std::get<2>(tpi.param));
    });

/** Sparse gather conservation across ratios. */
class SparseGatherSweep
    : public ::testing::TestWithParam<std::pair<std::uint32_t,
                                                std::uint32_t>>
{
};

TEST_P(SparseGatherSweep, CompressedRunsConserveCounts)
{
    const auto [n, m] = GetParam();
    const GemmDims gemm{24, 12, 48};
    const OperandMap operands = makeOperands(gemm);
    const auto pattern = sparse::SparsityPattern::layerWise(gemm.k, n,
                                                            m);
    DemandGenerator gen(gemm, Dataflow::WeightStationary, 8, 8,
                        operands, &pattern);
    CountingVisitor counter;
    gen.run(counter);
    const auto expect = gen.grid().sramAccessCounts();
    EXPECT_EQ(counter.ifmapReads, expect.ifmapReads);
    EXPECT_EQ(counter.filterReads, expect.filterReads);
    EXPECT_EQ(counter.lastCycle + 1, gen.grid().totalCycles());
    // Compressed K governs the fold grid.
    EXPECT_EQ(gen.grid().gemm().k, pattern.compressedK());
}

INSTANTIATE_TEST_SUITE_P(
    Ratios, SparseGatherSweep,
    ::testing::Values(std::make_pair(1u, 4u), std::make_pair(2u, 4u),
                      std::make_pair(3u, 4u), std::make_pair(1u, 8u),
                      std::make_pair(3u, 8u), std::make_pair(2u, 16u)),
    [](const auto& tpi) {
        return format("r%u_%u", tpi.param.first, tpi.param.second);
    });

TEST(DemandConv, BatchedImagesAddressDistinctTensors)
{
    LayerSpec layer = LayerSpec::conv("c", 6, 6, 3, 3, 2, 4, 1)
                          .withBatch(2);
    MemoryConfig mem;
    const OperandMap operands = OperandMap::forLayer(layer, mem);
    EXPECT_EQ(operands.batch, 2u);
    EXPECT_EQ(operands.ifmapWords(), 2u * 6u * 6u * 2u);
    const GemmDims gemm = layer.toGemm();
    DemandGenerator gen(gemm, Dataflow::OutputStationary, 8, 4,
                        operands);
    CollectingVisitor collect;
    gen.run(collect);
    std::set<Addr> unique;
    for (const auto& [clk, a] : collect.ifmap) {
        EXPECT_LT(a, operands.ifmapBase + operands.ifmapWords());
        unique.insert(a);
    }
    // Both images' tensors are fully touched.
    EXPECT_EQ(unique.size(), operands.ifmapWords());
}

namespace
{

/**
 * The im2col window equations written out per coordinate: output pixel
 * m = (img, oh, ow) and reduction index k = (kh, kw, c) read ifmap
 * element (oh*stride + kh, ow*stride + kw, c) of image img. GEMM
 * layers read A[m][k] row-major. Kept independent of OperandMap's
 * own arithmetic so the live stream has an outside reference.
 */
Addr
windowAddr(const OperandMap& op, std::uint64_t m, std::uint64_t k)
{
    if (!op.conv)
        return op.ifmapBase + m * op.dims.k + k;
    const std::uint64_t pixels = op.dims.m / op.batch;
    const std::uint64_t img = m / pixels;
    const std::uint64_t oh = (m % pixels) / op.ofmapW;
    const std::uint64_t ow = (m % pixels) % op.ofmapW;
    const std::uint64_t kh = k / (op.filterW * op.channels);
    const std::uint64_t kw = (k % (op.filterW * op.channels))
        / op.channels;
    const std::uint64_t c = k % op.channels;
    const std::uint64_t h = oh * op.stride + kh;
    const std::uint64_t w = ow * op.stride + kw;
    return op.ifmapBase + img * op.ifmapH * op.ifmapW * op.channels
        + (h * op.ifmapW + w) * op.channels + c;
}

/**
 * Brute-force demand schedule into `out`: every fold, every cycle,
 * every array row and column, with each ifmap address from
 * windowAddr(). Mirrors the skew/preload/drain timing of SCALE-Sim's
 * three dataflows.
 */
void
referenceDemand(const GemmDims& gemm, Dataflow df, std::uint32_t rows,
                std::uint32_t cols, OperandMap op, DemandVisitor& out,
                const KGatherMap* gather = nullptr)
{
    op.dims = gemm;
    GemmDims eff = gemm;
    if (gather)
        eff.k = gather->compressedK();
    const FoldGrid grid(eff, df, rows, cols);
    const std::uint64_t t_extent = grid.mapped().t;
    const bool os = df == Dataflow::OutputStationary;
    const bool ws = df == Dataflow::WeightStationary;
    // Cycle at which element t of a stream reaches row or column i.
    auto at = [&](std::uint64_t clk, std::uint64_t i, std::uint64_t lag,
                  std::uint64_t& t) {
        if (clk < lag + i || clk - lag - i >= t_extent)
            return false;
        t = clk - lag - i;
        return true;
    };
    Cycle start = 0;
    for (std::uint64_t rf = 0; rf < grid.rowFolds(); ++rf) {
        for (std::uint64_t cf = 0; cf < grid.colFolds(); ++cf) {
            const std::uint64_t tr = grid.tileRows(rf);
            const std::uint64_t tc = grid.tileCols(cf);
            const std::uint64_t sr = rf * rows;
            const std::uint64_t sc = cf * cols;
            for (std::uint64_t clk = 0; clk < grid.foldCycles(); ++clk) {
                std::vector<Addr> ifmap, filter, oreads, writes;
                std::uint64_t t = 0;
                if (os) {
                    for (std::uint64_t r = 0; r < tr; ++r)
                        if (at(clk, r, 0, t))
                            ifmap.push_back(windowAddr(op, sr + r, t));
                    for (std::uint64_t c = 0; c < tc; ++c)
                        if (at(clk, c, 0, t))
                            filter.push_back(op.filterAddr(t, sc + c));
                    for (std::uint64_t r = 0; r < tr; ++r)
                        for (std::uint64_t c = 0; c < tc; ++c)
                            if (clk == rows + t_extent - 1 + r + c)
                                writes.push_back(
                                    op.ofmapAddr(sr + r, sc + c));
                    out.cycle(start + clk, ifmap, filter, {}, writes);
                    continue;
                }
                // Stationary preload, bottom row first.
                for (std::uint64_t c = 0; clk < tr && c < tc; ++c) {
                    const std::uint64_t k = sr + (tr - 1 - clk);
                    if (ws)
                        filter.push_back(op.filterAddr(k, sc + c));
                    else
                        ifmap.push_back(windowAddr(op, sc + c, k));
                }
                for (std::uint64_t r = 0; r < tr; ++r) {
                    if (!at(clk, r, rows, t))
                        continue;
                    if (ws) {
                        const std::uint64_t k = sr + r;
                        ifmap.push_back(windowAddr(
                            op, t, gather ? gather->origK(k) : k));
                    } else {
                        filter.push_back(op.filterAddr(sr + r, t));
                    }
                }
                for (std::uint64_t c = 0; c < tc; ++c) {
                    if (!at(clk, c, 2ull * rows - 1, t))
                        continue;
                    writes.push_back(ws ? op.ofmapAddr(t, sc + c)
                                        : op.ofmapAddr(sc + c, t));
                    if (rf > 0)
                        oreads.push_back(writes.back());
                }
                out.cycle(start + clk, ifmap, filter, oreads, writes);
            }
            start += grid.foldCycles();
        }
    }
}

/** Uncached live stream vs the brute-force one, cycle by cycle. */
void
expectMatchesReference(const GemmDims& gemm, Dataflow df,
                       const OperandMap& op,
                       const KGatherMap* gather = nullptr)
{
    DemandGenerator gen(gemm, df, 8, 7, op, gather);
    gen.setFoldCache(false);
    // Both the row and the column edge folds must be ragged.
    ASSERT_NE(gen.grid().tileRows(gen.grid().rowFolds() - 1), 8u);
    ASSERT_NE(gen.grid().tileCols(gen.grid().colFolds() - 1), 7u);
    CollectingVisitor live, ref;
    gen.run(live);
    referenceDemand(gemm, df, 8, 7, op, ref, gather);
    EXPECT_EQ(live.ifmap, ref.ifmap);
    EXPECT_EQ(live.filter, ref.filter);
    EXPECT_EQ(live.oreads, ref.oreads);
    EXPECT_EQ(live.owrites, ref.owrites);
}

} // namespace

TEST(IfmapSplit, MatchesWindowEquations)
{
    MemoryConfig mem;
    mem.ifmapOffset = 4096;
    std::vector<OperandMap> maps = {OperandMap(GemmDims{13, 5, 7}, mem)};
    for (std::uint64_t stride : {1u, 2u, 3u})
        for (std::uint64_t batch : {1u, 3u})
            for (std::uint64_t channels : {1u, 3u})
                // Non-square ifmap and filter.
                maps.push_back(OperandMap::forLayer(
                    LayerSpec::conv("c", 9, 11, 3, 2, channels, 4, stride)
                        .withBatch(batch),
                    mem));
    for (const OperandMap& op : maps)
        for (std::uint64_t m = 0; m < op.dims.m; ++m)
            for (std::uint64_t k = 0; k < op.dims.k; ++k)
                ASSERT_EQ(op.ifmapAddr(m, k), windowAddr(op, m, k))
                    << "conv " << op.conv << " stride " << op.stride
                    << " batch " << op.batch << " channels "
                    << op.channels << " m " << m << " k " << k;
}

class DemandReference : public ::testing::TestWithParam<Dataflow>
{
};

TEST_P(DemandReference, RaggedConvMatchesBruteForce)
{
    // M = 3 * 4 * 5 = 60, K = 3 * 2 * 3 = 18, N = 10 on an 8x7 array.
    const LayerSpec layer = LayerSpec::conv("c", 9, 11, 3, 2, 3, 10, 2)
                                .withBatch(3);
    expectMatchesReference(layer.toGemm(), GetParam(),
                           OperandMap::forLayer(layer, MemoryConfig{}));
}

TEST_P(DemandReference, RaggedGemmMatchesBruteForce)
{
    const GemmDims g{37, 23, 51};
    expectMatchesReference(g, GetParam(), makeOperands(g));
}

INSTANTIATE_TEST_SUITE_P(
    AllDataflows, DemandReference,
    ::testing::Values(Dataflow::OutputStationary,
                      Dataflow::WeightStationary,
                      Dataflow::InputStationary),
    [](const auto& tpi) { return toString(tpi.param); });

TEST(DemandReference, SparseWsGatherMatchesBruteForce)
{
    // 2:4 keeps 26 of 51 K rows; ifmap reads gather through origK.
    const GemmDims g{37, 23, 51};
    const auto pattern = sparse::SparsityPattern::layerWise(g.k, 2, 4);
    expectMatchesReference(g, Dataflow::WeightStationary,
                           makeOperands(g), &pattern);
}

namespace
{

/**
 * FNV-1a over 64-bit words of every cycle of an uncached pass: the
 * cycle number, then each span's size and addresses.
 */
class StreamDigest : public DemandVisitor
{
  public:
    void
    cycle(Cycle clk, std::span<const Addr> ifmap_reads,
          std::span<const Addr> filter_reads,
          std::span<const Addr> ofmap_reads,
          std::span<const Addr> ofmap_writes) override
    {
        mix(clk);
        for (const auto span :
             {ifmap_reads, filter_reads, ofmap_reads, ofmap_writes}) {
            mix(span.size());
            for (const Addr a : span)
                mix(a);
        }
    }

    std::uint64_t hash = 0xcbf29ce484222325ull;

  private:
    void
    mix(std::uint64_t word)
    {
        hash = (hash ^ word) * 0x100000001b3ull;
    }
};

std::uint64_t
streamDigest(const LayerSpec& layer, Dataflow df,
             const KGatherMap* gather = nullptr)
{
    DemandGenerator gen(layer.toGemm(), df, 32, 32,
                        OperandMap::forLayer(layer, MemoryConfig{}),
                        gather);
    gen.setFoldCache(false);
    StreamDigest digest;
    gen.run(digest);
    return digest.hash;
}

/** ResNet-18's first three conv layers on a 32x32 array under `df`. */
void
expectResNet18Digests(Dataflow df, const std::uint64_t (&want)[3])
{
    const Topology r18 = workloads::resnet18();
    for (std::size_t l = 0; l < 3; ++l)
        EXPECT_EQ(streamDigest(r18.layers[l], df), want[l])
            << r18.layers[l].name;
}

} // namespace

// The digests below were captured from the generator when it still
// evaluated the window equations per address; the live stream must
// keep them. conv2_1a and conv2_1b share a shape, hence a digest.

TEST(DemandGolden, ResNet18FirstLayersOs)
{
    const std::uint64_t want[3] = {
        15989655567403635513ull, 1120833262596575809ull,
        1120833262596575809ull};
    expectResNet18Digests(Dataflow::OutputStationary, want);
}

TEST(DemandGolden, ResNet18FirstLayersWs)
{
    const std::uint64_t want[3] = {
        9520632448632075870ull, 90782489226456189ull,
        90782489226456189ull};
    expectResNet18Digests(Dataflow::WeightStationary, want);
}

TEST(DemandGolden, ResNet18FirstLayersIs)
{
    const std::uint64_t want[3] = {
        5248767611548697756ull, 14910427517021886787ull,
        14910427517021886787ull};
    expectResNet18Digests(Dataflow::InputStationary, want);
}

TEST(DemandGolden, SparseWsGather)
{
    const LayerSpec layer = LayerSpec::gemm("g", 96, 80, 128);
    const auto pattern = sparse::SparsityPattern::layerWise(128, 2, 4);
    EXPECT_EQ(streamDigest(layer, Dataflow::WeightStationary, &pattern),
              15513600659510689937ull);
}
