/**
 * @file
 * Golden A/B equivalence tests for the fold-replay demand cache: for a
 * matrix of shapes (ragged GEMMs, im2col convolutions, batched conv,
 * sparse-WS gathering) and all three dataflows, a cached run must be
 * byte-identical to an uncached run through every consumer — SRAM trace
 * text (all four streams), CountingVisitor totals, and the trace-driven
 * energy action counts. Also pins that the replay path actually fires
 * on the shapes designed to hit it.
 */

#include <gtest/gtest.h>

#include <memory_resource>
#include <new>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include "common/types.hpp"
#include "energy/action_counts.hpp"
#include "sparse/pattern.hpp"
#include "systolic/demand.hpp"
#include "systolic/fold_cache.hpp"
#include "systolic/trace_io.hpp"

using namespace scalesim;
using namespace scalesim::systolic;

namespace
{

/** Everything one demand pass produces, captured for comparison. */
struct PassResult
{
    std::string ifmapTrace;
    std::string filterTrace;
    std::string ofmapTrace;
    std::string oreadTrace;
    Count ifmapReads = 0;
    Count filterReads = 0;
    Count ofmapReads = 0;
    Count ofmapWrites = 0;
    Cycle lastCycle = 0;
    energy::ActionCounts actions;
    FoldCacheStats cache;
};

PassResult
runPass(const GemmDims& gemm, Dataflow df, std::uint32_t rows,
        std::uint32_t cols, const OperandMap& operands, bool cached,
        const KGatherMap* gather = nullptr)
{
    DemandGenerator gen(gemm, df, rows, cols, operands, gather);
    gen.setFoldCache(cached);

    std::ostringstream ifmap, filter, ofmap, oread;
    SramTraceWriter writer(&ifmap, &filter, &ofmap, &oread);
    CountingVisitor counter;
    EnergyConfig ecfg;
    energy::ActionCountVisitor actions(ecfg);
    TeeVisitor tee({&writer, &counter, &actions});
    gen.run(tee);

    PassResult r;
    r.ifmapTrace = ifmap.str();
    r.filterTrace = filter.str();
    r.ofmapTrace = ofmap.str();
    r.oreadTrace = oread.str();
    r.ifmapReads = counter.ifmapReads;
    r.filterReads = counter.filterReads;
    r.ofmapReads = counter.ofmapReads;
    r.ofmapWrites = counter.ofmapWrites;
    r.lastCycle = counter.lastCycle;
    r.actions = actions.counts();
    r.cache = gen.foldCacheStats();
    return r;
}

void
expectSramEqual(const energy::SramActionCounts& a,
                const energy::SramActionCounts& b, const char* what)
{
    EXPECT_EQ(a.readRandom, b.readRandom) << what;
    EXPECT_EQ(a.readRepeat, b.readRepeat) << what;
    EXPECT_EQ(a.writeRandom, b.writeRandom) << what;
    EXPECT_EQ(a.writeRepeat, b.writeRepeat) << what;
    EXPECT_EQ(a.idle, b.idle) << what;
}

/** Field-by-field ActionCounts comparison (no operator==). */
void
expectActionsEqual(const energy::ActionCounts& a,
                   const energy::ActionCounts& b)
{
    EXPECT_EQ(a.macRandom, b.macRandom);
    EXPECT_EQ(a.macConstant, b.macConstant);
    EXPECT_EQ(a.macGated, b.macGated);
    EXPECT_EQ(a.ifmapSpadRead, b.ifmapSpadRead);
    EXPECT_EQ(a.ifmapSpadWrite, b.ifmapSpadWrite);
    EXPECT_EQ(a.weightSpadRead, b.weightSpadRead);
    EXPECT_EQ(a.weightSpadWrite, b.weightSpadWrite);
    EXPECT_EQ(a.psumSpadRead, b.psumSpadRead);
    EXPECT_EQ(a.psumSpadWrite, b.psumSpadWrite);
    expectSramEqual(a.ifmapSram, b.ifmapSram, "ifmapSram");
    expectSramEqual(a.filterSram, b.filterSram, "filterSram");
    expectSramEqual(a.ofmapSram, b.ofmapSram, "ofmapSram");
    EXPECT_EQ(a.vectorOps, b.vectorOps);
    EXPECT_EQ(a.cycles, b.cycles);
}

/** Run cached vs uncached and demand bit-identical observations. */
void
expectEquivalent(const PassResult& cached, const PassResult& live)
{
    EXPECT_EQ(cached.ifmapTrace, live.ifmapTrace);
    EXPECT_EQ(cached.filterTrace, live.filterTrace);
    EXPECT_EQ(cached.ofmapTrace, live.ofmapTrace);
    EXPECT_EQ(cached.oreadTrace, live.oreadTrace);
    EXPECT_EQ(cached.ifmapReads, live.ifmapReads);
    EXPECT_EQ(cached.filterReads, live.filterReads);
    EXPECT_EQ(cached.ofmapReads, live.ofmapReads);
    EXPECT_EQ(cached.ofmapWrites, live.ofmapWrites);
    EXPECT_EQ(cached.lastCycle, live.lastCycle);
    expectActionsEqual(cached.actions, live.actions);
    // The uncached pass must never replay; both walk the same folds.
    EXPECT_EQ(live.cache.foldsReplayed, 0u);
    EXPECT_EQ(cached.cache.foldsTotal, live.cache.foldsTotal);
}

OperandMap
makeOperands(const GemmDims& gemm)
{
    MemoryConfig mem;
    return OperandMap(gemm, mem);
}

} // namespace

class FoldCacheAb : public ::testing::TestWithParam<Dataflow>
{
};

TEST_P(FoldCacheAb, RaggedGemmIsEquivalent)
{
    // 27x19x13 on an 8x8 array: ragged edge folds in both directions.
    const GemmDims gemm{27, 19, 13};
    const OperandMap operands = makeOperands(gemm);
    const auto cached = runPass(gemm, GetParam(), 8, 8, operands, true);
    const auto live = runPass(gemm, GetParam(), 8, 8, operands, false);
    expectEquivalent(cached, live);
}

TEST_P(FoldCacheAb, FullFoldGemmReplays)
{
    // 32x16x24: every fold is full-shaped, so after the one canonical
    // capture all remaining full folds must replay.
    const GemmDims gemm{32, 16, 24};
    const OperandMap operands = makeOperands(gemm);
    const auto cached = runPass(gemm, GetParam(), 8, 8, operands, true);
    const auto live = runPass(gemm, GetParam(), 8, 8, operands, false);
    expectEquivalent(cached, live);
    EXPECT_GT(cached.cache.foldsReplayed, 0u);
    EXPECT_GT(cached.cache.addrsReplayed, 0u);
    EXPECT_EQ(cached.cache.foldsTotal,
              cached.cache.foldsReplayed + cached.cache.foldsLive);
}

TEST_P(FoldCacheAb, ConvImToColIsEquivalent)
{
    // 14x14 conv, 3x3x8 -> 12 filters: M = 144, K = 72, N = 12.
    // im2col ifmap addressing is non-affine across row folds, so the
    // conv congruence classes must carry the replays.
    const LayerSpec layer = LayerSpec::conv("c", 14, 14, 3, 3, 8, 12, 1);
    const MemoryConfig mem;
    const OperandMap operands = OperandMap::forLayer(layer, mem);
    const GemmDims gemm = layer.toGemm();
    for (const Dataflow df : {GetParam()}) {
        const auto cached = runPass(gemm, df, 8, 8, operands, true);
        const auto live = runPass(gemm, df, 8, 8, operands, false);
        expectEquivalent(cached, live);
        EXPECT_GT(cached.cache.foldsReplayed, 0u)
            << "conv congruence classes should replay on " << toString(df);
    }
}

TEST_P(FoldCacheAb, BatchedConvIsEquivalent)
{
    // Batch 2 makes some fold m-ranges span the image boundary; those
    // must fall back to live generation without breaking equivalence.
    const LayerSpec layer =
        LayerSpec::conv("c", 10, 10, 3, 3, 4, 8, 1).withBatch(2);
    const MemoryConfig mem;
    const OperandMap operands = OperandMap::forLayer(layer, mem);
    const GemmDims gemm = layer.toGemm();
    const auto cached = runPass(gemm, GetParam(), 8, 8, operands, true);
    const auto live = runPass(gemm, GetParam(), 8, 8, operands, false);
    expectEquivalent(cached, live);
}

TEST_P(FoldCacheAb, StridedConvIsEquivalent)
{
    const LayerSpec layer = LayerSpec::conv("c", 16, 16, 3, 3, 4, 8, 2);
    const MemoryConfig mem;
    const OperandMap operands = OperandMap::forLayer(layer, mem);
    const GemmDims gemm = layer.toGemm();
    const auto cached = runPass(gemm, GetParam(), 8, 8, operands, true);
    const auto live = runPass(gemm, GetParam(), 8, 8, operands, false);
    expectEquivalent(cached, live);
}

INSTANTIATE_TEST_SUITE_P(
    AllDataflows, FoldCacheAb,
    ::testing::Values(Dataflow::OutputStationary,
                      Dataflow::WeightStationary,
                      Dataflow::InputStationary),
    [](const auto& tpi) { return toString(tpi.param); });

TEST(FoldCacheSparse, GatheredWsIsEquivalent)
{
    // 2:4 layer-wise sparsity: WS row folds gather original K rows, so
    // the ifmap stream is not shift-affine across row folds. Column
    // folds within a row fold still share a per-row-fold cache.
    const GemmDims dense{48, 24, 32};
    const OperandMap operands = makeOperands(dense);
    const auto pattern = sparse::SparsityPattern::layerWise(dense.k, 2, 4);
    const auto cached = runPass(dense, Dataflow::WeightStationary, 8, 8,
                                operands, true, &pattern);
    const auto live = runPass(dense, Dataflow::WeightStationary, 8, 8,
                              operands, false, &pattern);
    expectEquivalent(cached, live);
    EXPECT_GT(cached.cache.foldsReplayed, 0u)
        << "column folds should replay within each sparse row fold";
}

TEST(FoldCacheStatsTest, DisabledRunsEverythingLive)
{
    const GemmDims gemm{32, 16, 24};
    const OperandMap operands = makeOperands(gemm);
    const auto live =
        runPass(gemm, Dataflow::OutputStationary, 8, 8, operands, false);
    EXPECT_GT(live.cache.foldsTotal, 0u);
    EXPECT_EQ(live.cache.foldsLive, live.cache.foldsTotal);
    EXPECT_EQ(live.cache.foldsReplayed, 0u);
    EXPECT_EQ(live.cache.addrsReplayed, 0u);
    EXPECT_EQ(live.cache.bytesSaved(), 0u);
}

namespace
{

/** Action counts of a pass whose only sink is the action counter. */
struct SummaryPass
{
    energy::ActionCounts actions;
    Count foldsSummarized = 0;
    FoldCacheStats cache;
};

/**
 * With ActionCountVisitor as the only sink, every replayed fold goes
 * through its per-fold summary instead of its addresses.
 */
SummaryPass
runActionsOnly(const GemmDims& gemm, Dataflow df, std::uint32_t rows,
               std::uint32_t cols, const OperandMap& operands, bool cached,
               const EnergyConfig& ecfg = {},
               const KGatherMap* gather = nullptr)
{
    DemandGenerator gen(gemm, df, rows, cols, operands, gather);
    gen.setFoldCache(cached);
    energy::ActionCountVisitor actions(ecfg);
    gen.run(actions);
    return {actions.counts(), actions.foldsSummarized(),
            gen.foldCacheStats()};
}

/** Summarized cached pass vs the per-address uncached reference. */
void
expectSummaryEquivalent(const GemmDims& gemm, Dataflow df,
                        std::uint32_t rows, std::uint32_t cols,
                        const OperandMap& operands,
                        const EnergyConfig& ecfg = {},
                        const KGatherMap* gather = nullptr)
{
    const auto cached = runActionsOnly(gemm, df, rows, cols, operands,
                                       true, ecfg, gather);
    const auto live = runActionsOnly(gemm, df, rows, cols, operands,
                                     false, ecfg, gather);
    expectActionsEqual(cached.actions, live.actions);
    EXPECT_EQ(live.foldsSummarized, 0u);
    EXPECT_EQ(cached.foldsSummarized, cached.cache.foldsReplayed);
}

OperandMap
convOperands(const LayerSpec& layer)
{
    return OperandMap::forLayer(layer, MemoryConfig{});
}

} // namespace

class ActionSummaryAb : public ::testing::TestWithParam<Dataflow>
{
};

TEST_P(ActionSummaryAb, RaggedGemm)
{
    const GemmDims gemm{27, 19, 13};
    expectSummaryEquivalent(gemm, GetParam(), 8, 8, makeOperands(gemm));
}

TEST_P(ActionSummaryAb, FullFoldGemmSummarizes)
{
    const GemmDims gemm{32, 16, 24};
    const OperandMap operands = makeOperands(gemm);
    expectSummaryEquivalent(gemm, GetParam(), 8, 8, operands);
    const auto cached = runActionsOnly(gemm, GetParam(), 8, 8, operands,
                                       true);
    EXPECT_GT(cached.foldsSummarized, 0u);
}

TEST_P(ActionSummaryAb, ConvImToCol)
{
    const LayerSpec layer = LayerSpec::conv("c", 14, 14, 3, 3, 8, 12, 1);
    const OperandMap operands = convOperands(layer);
    expectSummaryEquivalent(layer.toGemm(), GetParam(), 8, 8, operands);
    const auto cached = runActionsOnly(layer.toGemm(), GetParam(), 8, 8,
                                       operands, true);
    EXPECT_GT(cached.foldsSummarized, 0u);
}

TEST_P(ActionSummaryAb, BatchedConv)
{
    const LayerSpec layer =
        LayerSpec::conv("c", 10, 10, 3, 3, 4, 8, 1).withBatch(2);
    expectSummaryEquivalent(layer.toGemm(), GetParam(), 8, 8,
                            convOperands(layer));
}

TEST_P(ActionSummaryAb, StridedConv)
{
    const LayerSpec layer = LayerSpec::conv("c", 16, 16, 3, 3, 4, 8, 2);
    expectSummaryEquivalent(layer.toGemm(), GetParam(), 8, 8,
                            convOperands(layer));
}

TEST_P(ActionSummaryAb, SmallArrayIncomingStateDecidesHits)
{
    // A 2x2 array touches at most a couple of rows per tracker bank in
    // one fold, far below BankSize 8: nearly every first touch hits or
    // misses on the rows earlier folds left behind.
    const GemmDims gemm{24, 20, 40};
    EnergyConfig ecfg;
    ecfg.rowSize = 8;
    ecfg.bankSize = 8;
    const OperandMap operands = makeOperands(gemm);
    expectSummaryEquivalent(gemm, GetParam(), 2, 2, operands, ecfg);
    const auto cached = runActionsOnly(gemm, GetParam(), 2, 2, operands,
                                       true, ecfg);
    EXPECT_GT(cached.foldsSummarized, 0u);
    const energy::ActionCounts& a = cached.actions;
    EXPECT_GT(a.ifmapSram.readRepeat + a.filterSram.readRepeat, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllDataflows, ActionSummaryAb,
    ::testing::Values(Dataflow::OutputStationary,
                      Dataflow::WeightStationary,
                      Dataflow::InputStationary),
    [](const auto& tpi) { return toString(tpi.param); });

TEST(ActionSummarySparse, GatheredWs)
{
    const GemmDims dense{48, 24, 32};
    const auto pattern = sparse::SparsityPattern::layerWise(dense.k, 2, 4);
    expectSummaryEquivalent(dense, Dataflow::WeightStationary, 8, 8,
                            makeOperands(dense), {}, &pattern);
}

/** (dataflow, RowSize, BankSize) */
using TrackerShape = std::tuple<Dataflow, std::uint32_t, std::uint32_t>;

class ActionSummaryTrackers : public ::testing::TestWithParam<TrackerShape>
{
};

TEST_P(ActionSummaryTrackers, ConvMatchesPerAddress)
{
    // Non-power-of-two and large rows make replay shifts land mid-row,
    // so the summaries are keyed by several sub-row offsets.
    const auto [df, row_size, bank_size] = GetParam();
    EnergyConfig ecfg;
    ecfg.rowSize = row_size;
    ecfg.bankSize = bank_size;
    const LayerSpec layer = LayerSpec::conv("c", 14, 14, 3, 3, 8, 12, 1);
    expectSummaryEquivalent(layer.toGemm(), df, 8, 8, convOperands(layer),
                            ecfg);
    const GemmDims gemm{40, 36, 20};
    expectSummaryEquivalent(gemm, df, 8, 8, makeOperands(gemm), ecfg);
}

INSTANTIATE_TEST_SUITE_P(
    RowBank, ActionSummaryTrackers,
    ::testing::Combine(::testing::Values(Dataflow::OutputStationary,
                                         Dataflow::WeightStationary,
                                         Dataflow::InputStationary),
                       ::testing::Values(24u, 8u, 64u),
                       ::testing::Values(2u, 4u, 8u)),
    [](const auto& tpi) {
        return toString(std::get<0>(tpi.param)) + "_r"
            + std::to_string(std::get<1>(tpi.param)) + "_b"
            + std::to_string(std::get<2>(tpi.param));
    });

namespace
{

/** SRAM traces and action counts of one energy-on, traced pass. */
struct TracedEnergyPass
{
    std::string traces[4]; ///< ifmap, filter, ofmap writes, ofmap reads
    energy::ActionCounts actions;
    Count foldsSummarized = 0;
    FoldCacheStats cache;
};

/**
 * The action counter consumes every cached fold, class captures
 * included; the trace writer declines them, so it sees their cycles.
 */
TracedEnergyPass
runTracedEnergy(const GemmDims& gemm, Dataflow df,
                const OperandMap& operands, bool cached,
                const EnergyConfig& ecfg,
                const KGatherMap* gather = nullptr)
{
    DemandGenerator gen(gemm, df, 8, 8, operands, gather);
    gen.setFoldCache(cached);
    std::ostringstream ifmap, filter, ofmap, oread;
    energy::ActionCountVisitor actions(ecfg);
    SramTraceWriter writer(&ifmap, &filter, &ofmap, &oread);
    TeeVisitor tee({&actions, &writer});
    gen.run(tee);
    return {{ifmap.str(), filter.str(), ofmap.str(), oread.str()},
            actions.counts(), actions.foldsSummarized(),
            gen.foldCacheStats()};
}

/** Cached vs uncached: byte-identical traces, identical counts. */
TracedEnergyPass
expectTracedEnergyEquivalent(const GemmDims& gemm, Dataflow df,
                             const OperandMap& operands,
                             const EnergyConfig& ecfg,
                             const KGatherMap* gather = nullptr)
{
    const auto cached = runTracedEnergy(gemm, df, operands, true, ecfg,
                                        gather);
    const auto live = runTracedEnergy(gemm, df, operands, false, ecfg,
                                      gather);
    for (std::size_t s = 0; s < 4; ++s)
        EXPECT_EQ(cached.traces[s], live.traces[s]) << "trace " << s;
    EXPECT_FALSE(cached.traces[0].empty());
    expectActionsEqual(cached.actions, live.actions);
    EXPECT_EQ(cached.foldsSummarized, cached.cache.foldsReplayed);
    return cached;
}

EnergyConfig
oddTrackers()
{
    EnergyConfig ecfg;
    ecfg.rowSize = 24;
    ecfg.bankSize = 3;
    return ecfg;
}

} // namespace

TEST(CaptureAsReplay, ConvOsTracesMatchUncached)
{
    const LayerSpec layer = LayerSpec::conv("c", 14, 14, 3, 3, 8, 12, 1);
    const auto cached = expectTracedEnergyEquivalent(
        layer.toGemm(), Dataflow::OutputStationary, convOperands(layer),
        EnergyConfig{});
    EXPECT_GT(cached.cache.foldsReplayed, 0u);
}

TEST(CaptureAsReplay, WsAccumulatingGemmTracesMatchUncached)
{
    // K = 24 on 8 rows: row folds 1 and 2 accumulate, and their class
    // capture carries the ofmap read stream.
    const GemmDims gemm{32, 16, 24};
    const auto cached = expectTracedEnergyEquivalent(
        gemm, Dataflow::WeightStationary, makeOperands(gemm),
        oddTrackers());
    EXPECT_GT(cached.cache.foldsReplayed, 0u);
    EXPECT_FALSE(cached.traces[3].empty());
    EXPECT_GT(cached.actions.ofmapSram.reads(), 0u);
}

TEST(CaptureAsReplay, SparseWsGatherTracesMatchUncached)
{
    const GemmDims dense{48, 24, 32};
    const auto pattern = sparse::SparsityPattern::layerWise(dense.k, 2, 4);
    const auto cached = expectTracedEnergyEquivalent(
        dense, Dataflow::WeightStationary, makeOperands(dense),
        oddTrackers(), &pattern);
    EXPECT_GT(cached.cache.foldsReplayed, 0u);
}

TEST(CaptureAsReplay, CaptureOnlyLayerMatchesUncached)
{
    // Sparse WS classes are row folds; with one column fold every fold
    // is its class's capture and nothing is replayed.
    const GemmDims dense{48, 8, 32};
    const auto pattern = sparse::SparsityPattern::layerWise(dense.k, 2, 4);
    for (const EnergyConfig& ecfg : {EnergyConfig{}, oddTrackers()}) {
        const auto cached = expectTracedEnergyEquivalent(
            dense, Dataflow::WeightStationary, makeOperands(dense), ecfg,
            &pattern);
        EXPECT_GT(cached.cache.foldsTotal, 1u);
        EXPECT_EQ(cached.cache.foldsReplayed, 0u);
        EXPECT_EQ(cached.cache.foldsLive, cached.cache.foldsTotal);
        EXPECT_EQ(cached.foldsSummarized, 0u);
    }
}

namespace
{

/** Hands allocations to `upstream` and counts the bytes handed out. */
class CountingResource : public std::pmr::memory_resource
{
  public:
    explicit CountingResource(std::pmr::memory_resource* upstream)
        : upstream_(upstream)
    {}

    std::size_t bytes = 0;

  private:
    void*
    do_allocate(std::size_t n, std::size_t align) override
    {
        void* p = upstream_->allocate(n, align);
        bytes += n;
        return p;
    }
    void
    do_deallocate(void* p, std::size_t n, std::size_t align) override
    {
        upstream_->deallocate(p, n, align);
    }
    bool
    do_is_equal(const std::pmr::memory_resource& other) const
        noexcept override
    {
        return this == &other;
    }

    std::pmr::memory_resource* upstream_;
};

/**
 * Sees every replayed entry: counts the captures (one per capture
 * fold) and checks that each fills its storage to capacity.
 */
class EntryCheck : public DemandVisitor
{
  public:
    void cycle(Cycle, std::span<const Addr>, std::span<const Addr>,
               std::span<const Addr>, std::span<const Addr>) override
    {}

    bool
    replayFold(const FoldCacheEntry& entry, Cycle,
               const ReplayDeltas& deltas, bool) override
    {
        if (deltas.ifmap == 0 && deltas.filter == 0 && deltas.ofmap == 0
            && entry.rf == rf_ && entry.cf == cf_) {
            ++captures;
        }
        for (const auto* s : {&entry.ifmap, &entry.filter, &entry.writes}) {
            full = full && s->addrs.size() == s->addrs.capacity()
                && s->begin.size() == s->begin.capacity();
        }
        return false;
    }

    void
    beginFold(std::uint64_t rf, std::uint64_t cf, Cycle) override
    {
        rf_ = rf;
        cf_ = cf;
    }

    Count captures = 0;
    bool full = true;

  private:
    std::uint64_t rf_ = 0;
    std::uint64_t cf_ = 0;
};

/** What a pass emitted, to compare an arena run with a heap run. */
struct Emitted
{
    CountingVisitor counts;
    energy::ActionCounts actions;
    EntryCheck entries;
};

Emitted
emit(const DemandGenerator& gen, std::pmr::memory_resource* captures)
{
    Emitted out;
    energy::ActionCountVisitor actions(EnergyConfig{});
    TeeVisitor tee({&out.counts, &actions, &out.entries});
    gen.run(tee, captures);
    out.actions = actions.counts();
    return out;
}

} // namespace

TEST(FoldCache, CaptureBytesAreExact)
{
    // Each pass gets exactly captureBytes() in a buffer whose upstream
    // is null_memory_resource: the captures must fit, take all of it,
    // fill their storage and emit what a heap-backed pass emits; one
    // word less must throw.
    struct Case
    {
        const char* name;
        GemmDims gemm;
        OperandMap operands;
        std::uint32_t array;
        bool sparse = false;
        /** Expect more classes than the cache keeps (eviction). */
        bool evicts = false;
    };
    const LayerSpec conv_even = LayerSpec::conv("even", 12, 12, 3, 3, 8,
                                                16, 1);
    const LayerSpec conv_ragged = LayerSpec::conv("ragged", 13, 11, 3, 3,
                                                  5, 11, 1);
    // ResNet-50's conv1: 109 output columns make 109 OS classes.
    const LayerSpec conv1 = LayerSpec::conv("conv1", 224, 224, 7, 7, 3,
                                            64, 2);
    const GemmDims even{64, 32, 48};
    const GemmDims ragged{61, 27, 45};
    std::vector<Case> cases;
    cases.push_back({"gemm even", even, makeOperands(even), 8});
    cases.push_back({"gemm ragged", ragged, makeOperands(ragged), 8});
    cases.push_back({"conv even", conv_even.toGemm(),
                     convOperands(conv_even), 8});
    cases.push_back({"conv ragged", conv_ragged.toGemm(),
                     convOperands(conv_ragged), 8});
    cases.push_back({"conv1", conv1.toGemm(), convOperands(conv1), 16,
                     false, true});
    const GemmDims sparse_even{48, 24, 32};
    const GemmDims sparse_ragged{50, 27, 44};
    cases.push_back({"sparse even", sparse_even, makeOperands(sparse_even),
                     8, true});
    cases.push_back({"sparse ragged", sparse_ragged,
                     makeOperands(sparse_ragged), 8, true});

    for (const Case& c : cases) {
        for (Dataflow df : {Dataflow::OutputStationary,
                            Dataflow::WeightStationary,
                            Dataflow::InputStationary}) {
            // The sparse gather is weight-stationary only.
            if (c.sparse && df != Dataflow::WeightStationary)
                continue;
            const std::string what = std::string(c.name) + " "
                + toString(df);
            const auto pattern =
                sparse::SparsityPattern::layerWise(c.gemm.k, 2, 4);
            const DemandGenerator gen(c.gemm, df, c.array, c.array,
                                      c.operands,
                                      c.sparse ? &pattern : nullptr);
            const std::size_t bytes = gen.captureBytes();
            ASSERT_GT(bytes, 0u) << what;

            std::vector<std::byte> buf(bytes);
            std::pmr::monotonic_buffer_resource arena(
                buf.data(), buf.size(), std::pmr::null_memory_resource());
            CountingResource counted(&arena);
            const Emitted got = emit(gen, &counted);
            EXPECT_EQ(counted.bytes, bytes) << what;
            EXPECT_TRUE(got.entries.full) << what;
            const Emitted want = emit(gen,
                                      std::pmr::get_default_resource());
            EXPECT_EQ(got.counts.ifmapReads, want.counts.ifmapReads)
                << what;
            EXPECT_EQ(got.counts.filterReads, want.counts.filterReads)
                << what;
            EXPECT_EQ(got.counts.ofmapWrites, want.counts.ofmapWrites)
                << what;
            EXPECT_EQ(got.counts.activeCycles, want.counts.activeCycles)
                << what;
            expectActionsEqual(got.actions, want.actions);
            EXPECT_GT(got.entries.captures, 0u) << what;

            std::pmr::monotonic_buffer_resource short_arena(
                buf.data(), bytes - sizeof(Addr),
                std::pmr::null_memory_resource());
            EXPECT_THROW(emit(gen, &short_arena), std::bad_alloc) << what;

            // An evicted entry's storage holds the next capture.
            if (c.evicts && df != Dataflow::WeightStationary) {
                EXPECT_GT(got.entries.captures,
                          FoldReplayCache::kMaxEntries) << what;
            }
        }
    }

    // Without the fold cache, or with one fold, nothing is captured.
    DemandGenerator off(even, Dataflow::OutputStationary, 8, 8,
                        makeOperands(even));
    off.setFoldCache(false);
    EXPECT_EQ(off.captureBytes(), 0u);
    std::pmr::monotonic_buffer_resource none(
        nullptr, 0, std::pmr::null_memory_resource());
    EXPECT_NO_THROW(emit(off, &none));
    const DemandGenerator single({8, 8, 8}, Dataflow::OutputStationary, 8,
                                 8, makeOperands({8, 8, 8}));
    EXPECT_EQ(single.captureBytes(), 0u);
}
