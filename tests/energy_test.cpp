/**
 * @file
 * Unit tests for the energy module: ERT node scaling, MAC/scratchpad/
 * SRAM action-count rules (§VII), trace-vs-analytical consistency,
 * repeated-access lookup behavior against an in-test LRU reference and
 * pinned counts, and the energy/power model.
 */

#include <gtest/gtest.h>

#include <array>
#include <list>

#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/workloads.hpp"
#include "energy/action_counts.hpp"
#include "energy/model.hpp"
#include "sparse/pattern.hpp"
#include "systolic/demand.hpp"

using namespace scalesim;
using namespace scalesim::energy;
using namespace scalesim::systolic;

namespace
{

OperandMap
makeOperands(const GemmDims& gemm)
{
    MemoryConfig mem;
    return OperandMap(gemm, mem);
}

ActionCounts
traceCounts(const GemmDims& gemm, Dataflow df, std::uint32_t array,
            const EnergyConfig& cfg)
{
    DemandGenerator gen(gemm, df, array, array, makeOperands(gemm));
    ActionCountVisitor visitor(cfg);
    gen.run(visitor);
    return visitor.counts();
}

} // namespace

TEST(Ert, NodeScalingMonotone)
{
    const Ert n65 = Ert::forNode("65nm");
    const Ert n28 = Ert::forNode("28nm");
    EXPECT_LT(n28.macRandom, n65.macRandom);
    EXPECT_LT(n28.sramReadRandom, n65.sramReadRandom);
    EXPECT_LT(n28.dramPerWord, n65.dramPerWord);
    EXPECT_THROW(Ert::forNode("3nm"), FatalError);
}

TEST(Ert, ActionOrdering)
{
    const Ert ert = Ert::node65nm();
    // Gated < constant < random (the §VII-E clock-gating premise).
    EXPECT_LT(ert.macGated, ert.macConstant);
    EXPECT_LT(ert.macConstant, ert.macRandom);
    // Repeated accesses cost less than random ones (§VII-C: "differ by
    // more than double").
    EXPECT_LT(ert.sramReadRepeat * 2, ert.sramReadRandom * 1.001);
    EXPECT_LT(ert.sramWriteRepeat, ert.sramWriteRandom);
    // DRAM is far more expensive than SRAM.
    EXPECT_GT(ert.dramPerWord, 10 * ert.sramReadRandom);
}

TEST(ActionCounts, MacCountsMatchFormula)
{
    // MAC_random = #PEs x cycles x utilization = exact MAC count.
    const GemmDims gemm{32, 24, 40};
    EnergyConfig cfg;
    const ActionCounts counts = traceCounts(
        gemm, Dataflow::OutputStationary, 8, cfg);
    const systolic::FoldGrid grid(gemm, Dataflow::OutputStationary, 8,
                                  8);
    const Count pe_cycles = 64ull * grid.totalCycles();
    EXPECT_NEAR(static_cast<double>(counts.macRandom),
                static_cast<double>(gemm.macs()),
                static_cast<double>(gemm.macs()) * 0.01);
    EXPECT_EQ(counts.macRandom + counts.macGated, pe_cycles);
    EXPECT_EQ(counts.macConstant, 0u); // gating on by default
}

TEST(ActionCounts, GatingOffUsesConstant)
{
    const GemmDims gemm{16, 16, 16};
    EnergyConfig cfg;
    DemandGenerator gen(gemm, Dataflow::OutputStationary, 8, 8,
                        makeOperands(gemm));
    ActionCountVisitor visitor(cfg, /*clock_gating=*/false);
    gen.run(visitor);
    EXPECT_EQ(visitor.counts().macGated, 0u);
    EXPECT_GT(visitor.counts().macConstant, 0u);
}

TEST(ActionCounts, SpadRulesFollowSramReads)
{
    // §VII-E: spad writes = corresponding SRAM reads; spad reads = MACs.
    const GemmDims gemm{24, 16, 32};
    EnergyConfig cfg;
    const ActionCounts c = traceCounts(gemm,
                                       Dataflow::WeightStationary, 8,
                                       cfg);
    EXPECT_EQ(c.ifmapSpadWrite, c.ifmapSram.reads());
    EXPECT_EQ(c.weightSpadWrite, c.filterSram.reads());
    EXPECT_EQ(c.ifmapSpadRead, c.macRandom);
    EXPECT_EQ(c.psumSpadRead, c.macRandom);
    EXPECT_EQ(c.psumSpadWrite, c.macRandom);
}

TEST(ActionCounts, WeightStationaryMinimizesWeightSpadWrites)
{
    // The defining property of WS (§VII-E): far fewer weight-spad
    // writes than OS/IS on the same layer.
    const GemmDims gemm{64, 48, 56};
    EnergyConfig cfg;
    const auto ws = traceCounts(gemm, Dataflow::WeightStationary, 8,
                                cfg);
    const auto os = traceCounts(gemm, Dataflow::OutputStationary, 8,
                                cfg);
    const auto is = traceCounts(gemm, Dataflow::InputStationary, 8,
                                cfg);
    EXPECT_LT(ws.weightSpadWrite, os.weightSpadWrite);
    EXPECT_LT(ws.weightSpadWrite, is.weightSpadWrite);
    // And IS minimizes ifmap-spad writes.
    EXPECT_LT(is.ifmapSpadWrite, ws.ifmapSpadWrite);
}

TEST(ActionCounts, SequentialStreamsRepeat)
{
    // OS ifmap feeders walk stride-1 addresses: with rowSize 32 the
    // repeat fraction should approach 31/32.
    const GemmDims gemm{16, 16, 256};
    EnergyConfig cfg;
    cfg.rowSize = 32;
    const auto c = traceCounts(gemm, Dataflow::OutputStationary, 16,
                               cfg);
    const double repeat_fraction =
        static_cast<double>(c.ifmapSram.readRepeat)
        / static_cast<double>(c.ifmapSram.reads());
    EXPECT_GT(repeat_fraction, 0.85);
}

TEST(ActionCounts, UnitRowSizeMakesEverythingRandom)
{
    // With a one-word row buffer there is nothing to repeat from: a
    // repeat would require re-reading the exact same address while it
    // is still tracked, which streaming passes don't do.
    const GemmDims gemm{16, 128, 64};
    EnergyConfig cfg;
    cfg.rowSize = 1;
    const auto c = traceCounts(gemm, Dataflow::OutputStationary, 16,
                               cfg);
    const double random_fraction =
        static_cast<double>(c.filterSram.readRandom)
        / static_cast<double>(c.filterSram.reads());
    EXPECT_GT(random_fraction, 0.99);
}

TEST(ActionCounts, BiggerRowSizeMoreRepeats)
{
    // The 'row size' knob (§VII-C) directly controls how much repeated
    //-access energy saving is available.
    const GemmDims gemm{32, 32, 64};
    EnergyConfig small_cfg;
    small_cfg.rowSize = 2;
    EnergyConfig big_cfg;
    big_cfg.rowSize = 64;
    const auto small_rows = traceCounts(
        gemm, Dataflow::OutputStationary, 16, small_cfg);
    const auto big_rows = traceCounts(
        gemm, Dataflow::OutputStationary, 16, big_cfg);
    EXPECT_GT(big_rows.ifmapSram.readRepeat,
              small_rows.ifmapSram.readRepeat);
}

TEST(ActionCounts, IdleFormula)
{
    // idle = cycles x ports - used (§VII-D).
    const GemmDims gemm{16, 16, 16};
    EnergyConfig cfg;
    DemandGenerator gen(gemm, Dataflow::OutputStationary, 8, 8,
                        makeOperands(gemm));
    ActionCountVisitor visitor(cfg);
    gen.run(visitor);
    const auto& c = visitor.counts();
    const Count ports = 8ull * c.cycles;
    EXPECT_EQ(c.ifmapSram.idle, ports - c.ifmapSram.reads());
}

TEST(ActionCounts, TraceAndAnalyticalAgreeOnStructure)
{
    const GemmDims gemm{48, 32, 40};
    EnergyConfig cfg;
    for (auto df : {Dataflow::OutputStationary,
                    Dataflow::WeightStationary,
                    Dataflow::InputStationary}) {
        const systolic::FoldGrid grid(gemm, df, 8, 8);
        const ActionCounts analytical = analyticalActionCounts(grid,
                                                               cfg);
        const ActionCounts trace = traceCounts(gemm, df, 8, cfg);
        EXPECT_EQ(analytical.cycles, trace.cycles) << toString(df);
        EXPECT_EQ(analytical.macRandom, trace.macRandom)
            << toString(df);
        // Total SRAM access counts (random + repeat) are exact in both
        // paths; only the split is estimated analytically.
        EXPECT_EQ(analytical.ifmapSram.reads(),
                  trace.ifmapSram.reads()) << toString(df);
        EXPECT_EQ(analytical.filterSram.reads(),
                  trace.filterSram.reads()) << toString(df);
        EXPECT_EQ(analytical.ofmapSram.writes(),
                  trace.ofmapSram.writes()) << toString(df);
        EXPECT_EQ(analytical.nocWords, trace.nocWords) << toString(df);
        // The per-layer rules derived from those totals agree too.
        EXPECT_EQ(analytical.macGated, trace.macGated) << toString(df);
        EXPECT_EQ(analytical.ifmapSpadRead, trace.ifmapSpadRead)
            << toString(df);
        EXPECT_EQ(analytical.ifmapSpadWrite, trace.ifmapSpadWrite)
            << toString(df);
        EXPECT_EQ(analytical.weightSpadRead, trace.weightSpadRead)
            << toString(df);
        EXPECT_EQ(analytical.weightSpadWrite, trace.weightSpadWrite)
            << toString(df);
        EXPECT_EQ(analytical.psumSpadRead, trace.psumSpadRead)
            << toString(df);
        EXPECT_EQ(analytical.psumSpadWrite, trace.psumSpadWrite)
            << toString(df);
        EXPECT_EQ(analytical.ifmapSram.idle, trace.ifmapSram.idle)
            << toString(df);
        EXPECT_EQ(analytical.filterSram.idle, trace.filterSram.idle)
            << toString(df);
        EXPECT_EQ(analytical.ofmapSram.idle, trace.ofmapSram.idle)
            << toString(df);
    }
}

TEST(Model, EnergyPositiveAndDecomposed)
{
    const GemmDims gemm{32, 32, 32};
    const systolic::FoldGrid grid(gemm, Dataflow::OutputStationary, 8,
                                  8);
    EnergyConfig cfg;
    ActionCounts counts = analyticalActionCounts(grid, cfg);
    counts.dramReadWords = 1000;
    counts.dramWriteWords = 500;
    EnergyModel model(Ert::node65nm(), cfg, 64, 640.0);
    const EnergyBreakdown e = model.energy(counts);
    EXPECT_GT(e.peArray, 0.0);
    EXPECT_GT(e.glb, 0.0);
    EXPECT_GT(e.noc, 0.0);
    EXPECT_GT(e.dram, 0.0);
    EXPECT_GT(e.staticE, 0.0);
    EXPECT_NEAR(e.totalPj(),
                e.peArray + e.glb + e.noc + e.dram + e.staticE, 1e-6);
    EXPECT_GT(model.averagePowerW(e, grid.totalCycles()), 0.0);
    EXPECT_GT(model.edp(e, grid.totalCycles()), 0.0);
}

TEST(Model, GatingSavesEnergy)
{
    const GemmDims gemm{8, 8, 64};
    const systolic::FoldGrid grid(gemm, Dataflow::OutputStationary, 32,
                                  32); // badly underutilized
    EnergyConfig cfg;
    const ActionCounts gated = analyticalActionCounts(grid, cfg, true);
    const ActionCounts clocked = analyticalActionCounts(grid, cfg,
                                                        false);
    EnergyModel model(Ert::node65nm(), cfg, 1024, 640.0);
    EXPECT_LT(model.energy(gated).totalPj(),
              model.energy(clocked).totalPj());
}

TEST(Model, BiggerArrayCostsMoreOnSmallWork)
{
    // The paper's headline: oversized arrays waste energy on
    // under-utilized PEs and leakage.
    const GemmDims gemm{64, 64, 64};
    EnergyConfig cfg;
    auto energy_for = [&](std::uint32_t array) {
        const systolic::FoldGrid grid(gemm,
                                      Dataflow::OutputStationary,
                                      array, array);
        const ActionCounts counts = analyticalActionCounts(grid, cfg);
        EnergyModel model(Ert::node65nm(), cfg,
                          static_cast<std::uint64_t>(array) * array,
                          640.0);
        return model.energy(counts).totalPj();
    };
    EXPECT_LT(energy_for(64), energy_for(256));
}

TEST(Model, SecondsAndPowerConsistent)
{
    EnergyConfig cfg;
    cfg.frequencyGhz = 2.0;
    EnergyModel model(Ert::node65nm(), cfg, 16, 64.0);
    EXPECT_DOUBLE_EQ(model.seconds(2'000'000'000ull), 1.0);
    EnergyBreakdown e;
    e.peArray = 1e12; // 1 J
    EXPECT_NEAR(model.averagePowerW(e, 2'000'000'000ull), 1.0, 1e-9);
}

TEST(Model, DramCommandEnergyTracksRowLocality)
{
    EnergyConfig cfg;
    EnergyModel model(Ert::node65nm(), cfg, 64, 64.0);
    // Same burst count, different activation counts: the row-thrashing
    // pattern costs more.
    const double streaming = model.dramCommandEnergyPj(10, 1000, 0, 2);
    const double thrashing = model.dramCommandEnergyPj(1000, 1000, 0,
                                                       2);
    EXPECT_GT(thrashing, streaming);
    EXPECT_GT(streaming, 0.0);
}

TEST(Model, DramCommandEnergyComponents)
{
    EnergyConfig cfg;
    const Ert ert = Ert::node65nm();
    EnergyModel model(ert, cfg, 64, 64.0);
    EXPECT_DOUBLE_EQ(model.dramCommandEnergyPj(1, 0, 0, 0),
                     ert.dramActPj);
    EXPECT_DOUBLE_EQ(model.dramCommandEnergyPj(0, 2, 3, 0),
                     2 * ert.dramReadBurstPj + 3 * ert.dramWriteBurstPj);
    EXPECT_DOUBLE_EQ(model.dramCommandEnergyPj(0, 0, 0, 5),
                     5 * ert.dramRefreshPj);
}

namespace
{

/**
 * Brute-force repeat lookup, independent of ActionCountVisitor's
 * trackers: one LRU list of rows per bank, MRU at the front.
 */
class ReferenceRowLru
{
  public:
    ReferenceRowLru(std::uint32_t row_size, std::uint32_t bank_size)
        : rowSize_(row_size), bankSize_(bank_size)
    {}

    /** True when `addr`'s row is among its bank's last bankSize rows. */
    bool
    access(Addr addr)
    {
        const std::uint64_t row = addr / rowSize_;
        std::list<std::uint64_t>& bank = banks_[row % banks_.size()];
        for (auto it = bank.begin(); it != bank.end(); ++it) {
            if (*it == row) {
                bank.splice(bank.begin(), bank, it);
                return true;
            }
        }
        bank.push_front(row);
        if (bank.size() > bankSize_)
            bank.pop_back();
        return false;
    }

  private:
    std::uint32_t rowSize_;
    std::uint32_t bankSize_;
    std::array<std::list<std::uint64_t>, 32> banks_;
};

/** Repeat count of each stream the visitor tracks separately. */
std::array<Count, 4>
streamRepeats(const ActionCounts& c)
{
    return {c.ifmapSram.readRepeat, c.filterSram.readRepeat,
            c.ofmapSram.readRepeat, c.ofmapSram.writeRepeat};
}

} // namespace

TEST(ActionCountsReference, EveryAccessMatchesBruteForceLru)
{
    const GemmDims gemm{8, 8, 8};
    const FoldGrid grid(gemm, Dataflow::OutputStationary, 8, 8);
    const OperandMap operands = makeOperands(gemm);
    for (std::uint32_t bank_size : {1u, 2u, 3u, 4u, 5u, 8u}) {
        for (std::uint32_t row_size : {1u, 3u, 24u, 32u}) {
            SCOPED_TRACE(::testing::Message() << "RowSize " << row_size
                                              << " BankSize "
                                              << bank_size);
            EnergyConfig cfg;
            cfg.rowSize = row_size;
            cfg.bankSize = bank_size;
            ActionCountVisitor visitor(cfg);
            visitor.beginLayer(grid, operands);
            std::array<ReferenceRowLru, 4> ref{
                ReferenceRowLru(row_size, bank_size),
                ReferenceRowLru(row_size, bank_size),
                ReferenceRowLru(row_size, bank_size),
                ReferenceRowLru(row_size, bank_size)};
            // Rows span a few times the tracked rows of all 32 banks, so
            // banks fill, evict and re-hit; recent addresses recur.
            const std::uint64_t rows = 32ull * (bank_size + 2);
            Rng rng(1000 * bank_size + row_size);
            std::array<std::vector<Addr>, 4> recent;
            for (Cycle clk = 0; clk < 20000; ++clk) {
                std::array<Addr, 4> addr{};
                std::array<bool, 4> live{};
                for (std::size_t s = 0; s < 4; ++s) {
                    live[s] = rng.below(8) != 0;
                    if (!recent[s].empty() && rng.below(2) == 0) {
                        addr[s] = recent[s][rng.below(recent[s].size())];
                    } else {
                        // Far addresses too: 2^40 + a small offset.
                        const Addr base = rng.below(4) == 0
                            ? Addr{1} << 40 : 0;
                        addr[s] = base + rng.below(rows * row_size);
                    }
                    if (recent[s].size() < 16)
                        recent[s].push_back(addr[s]);
                    else
                        recent[s][rng.below(16)] = addr[s];
                }
                auto span = [&](std::size_t s) {
                    return live[s] ? std::span<const Addr>(&addr[s], 1)
                                   : std::span<const Addr>{};
                };
                const auto before = streamRepeats(visitor.counts());
                visitor.cycle(clk, span(0), span(1), span(2), span(3));
                const auto after = streamRepeats(visitor.counts());
                for (std::size_t s = 0; s < 4; ++s) {
                    const Count want = live[s] && ref[s].access(addr[s]);
                    ASSERT_EQ(after[s] - before[s], want)
                        << "stream " << s << " cycle " << clk;
                }
            }
        }
    }
}

namespace
{

/** The eight trace-counted SRAM figures of one layer. */
struct GoldenSram
{
    Count ifmapReadRandom;
    Count ifmapReadRepeat;
    Count filterReadRandom;
    Count filterReadRepeat;
    Count ofmapReadRandom;
    Count ofmapReadRepeat;
    Count ofmapWriteRandom;
    Count ofmapWriteRepeat;
};

/** One layer on a 32x32 array through the fold-cached demand pass. */
ActionCounts
layerCounts(const LayerSpec& layer, Dataflow df, std::uint32_t row_size,
            std::uint32_t bank_size, const KGatherMap* gather = nullptr)
{
    DemandGenerator gen(layer.toGemm(), df, 32, 32,
                        OperandMap::forLayer(layer, MemoryConfig{}),
                        gather);
    EnergyConfig cfg;
    cfg.rowSize = row_size;
    cfg.bankSize = bank_size;
    ActionCountVisitor visitor(cfg);
    gen.run(visitor);
    return visitor.counts();
}

void
expectGolden(const ActionCounts& got, const GoldenSram& want)
{
    EXPECT_EQ(got.ifmapSram.readRandom, want.ifmapReadRandom);
    EXPECT_EQ(got.ifmapSram.readRepeat, want.ifmapReadRepeat);
    EXPECT_EQ(got.filterSram.readRandom, want.filterReadRandom);
    EXPECT_EQ(got.filterSram.readRepeat, want.filterReadRepeat);
    EXPECT_EQ(got.ofmapSram.readRandom, want.ofmapReadRandom);
    EXPECT_EQ(got.ofmapSram.readRepeat, want.ofmapReadRepeat);
    EXPECT_EQ(got.ofmapSram.writeRandom, want.ofmapWriteRandom);
    EXPECT_EQ(got.ofmapSram.writeRepeat, want.ofmapWriteRepeat);
}

/** (RowSize, BankSize) of each pinned row, in order. */
constexpr std::pair<std::uint32_t, std::uint32_t> kGoldenShapes[] = {
    {32, 4}, {24, 3}, {1, 1}};

/** ResNet-18 conv1 and conv2_1a under `df`, one row per shape each. */
void
expectResNet18Golden(Dataflow df, const GoldenSram (&want)[2][3])
{
    const Topology r18 = workloads::resnet18();
    for (std::size_t l = 0; l < 2; ++l) {
        for (std::size_t i = 0; i < std::size(kGoldenShapes); ++i) {
            const auto [row_size, bank_size] = kGoldenShapes[i];
            SCOPED_TRACE(::testing::Message()
                         << r18.layers[l].name << " RowSize " << row_size
                         << " BankSize " << bank_size);
            expectGolden(layerCounts(r18.layers[l], df, row_size,
                                     bank_size),
                         want[l][i]);
        }
    }
}

} // namespace

// The pinned figures below were captured from the size-tracked MRU
// counter, with class captures stepped address by address; the counter
// must reproduce them exactly.

TEST(EnergyGolden, ResNet18FirstLayersOs)
{
    const GoldenSram want[2][3] = {
        {{9651, 3483363, 109368, 3390408, 0, 0, 23762, 736622},
         {21364, 3471650, 218736, 3281040, 0, 0, 31683, 728701},
         {3455958, 37056, 3499776, 0, 0, 0, 760384, 0}},
        {{38216, 3321016, 105984, 3285504, 0, 0, 5832, 180792},
         {55803, 3303429, 211968, 3179520, 0, 0, 7777, 178847},
         {3359232, 0, 3391488, 0, 0, 0, 186624, 0}},
    };
    expectResNet18Golden(Dataflow::OutputStationary, want);
}

TEST(EnergyGolden, ResNet18FirstLayersWs)
{
    const GoldenSram want[2][3] = {
        {{41286, 3451728, 294, 9114, 95048, 2946488, 118810, 3683110},
         {55048, 3437966, 395, 9013, 190096, 2851440, 237620, 3564300},
         {3492558, 456, 9408, 0, 3041536, 0, 3801920, 0}},
        {{104976, 3254256, 1152, 35712, 99144, 3073464, 104976, 3254256},
         {209952, 3149280, 1548, 35316, 198288, 2974320, 209952, 3149280},
         {3359232, 0, 36864, 0, 3172608, 0, 3359232, 0}},
    };
    expectResNet18Golden(Dataflow::WeightStationary, want);
}

TEST(EnergyGolden, ResNet18FirstLayersIs)
{
    const GoldenSram want[2][3] = {
        {{20643, 1725864, 294, 3499482, 95048, 2946488, 118810, 3683110},
         {28259, 1718248, 393, 3499383, 126732, 2914804, 158415, 3643505},
         {1746327, 180, 3499776, 0, 3041536, 0, 3801920, 0}},
        {{52488, 1627128, 1152, 3390336, 99144, 3073464, 104976, 3254256},
         {104976, 1574640, 1537, 3389951, 132209, 3040399, 139986, 3219246},
         {1679616, 0, 3391488, 0, 3172608, 0, 3359232, 0}},
    };
    expectResNet18Golden(Dataflow::InputStationary, want);
}

TEST(EnergyGolden, SparseWsGather)
{
    // 2:4 structured sparsity: WS gathers the kept K rows of the ifmap.
    const LayerSpec layer = LayerSpec::gemm("g", 96, 80, 128);
    const auto pattern = sparse::SparsityPattern::layerWise(128, 2, 4);
    const GoldenSram want[] = {
        {1152, 17280, 160, 4960, 358, 7322, 691, 14669},
        {1920, 16512, 222, 4898, 505, 7175, 1004, 14356},
        {18432, 0, 5120, 0, 7680, 0, 15360, 0},
    };
    for (std::size_t i = 0; i < std::size(kGoldenShapes); ++i) {
        const auto [row_size, bank_size] = kGoldenShapes[i];
        SCOPED_TRACE(::testing::Message() << "RowSize " << row_size
                                          << " BankSize " << bank_size);
        expectGolden(layerCounts(layer, Dataflow::WeightStationary,
                                 row_size, bank_size, &pattern),
                     want[i]);
    }
}
