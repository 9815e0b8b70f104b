/**
 * @file
 * Multi-core contention tests: golden pinning and determinism of the
 * shared-timeline model and its conflicts on a bandwidth-starved
 * configuration, the arbiter's grant order, operand offsets reaching
 * the shared L2, the l1FillWords == L2 service invariant, zero-share-core coverage on grids wider than
 * the mapped dims, the port-level cpi.conservation read-latency split
 * with the L2 on and off,
 * and spatial-partition operand-view coverage for all three dataflows.
 */

#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "check/audit.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "multicore/trace_sim.hpp"
#include "obs/stats.hpp"

using namespace scalesim;
using namespace scalesim::multicore;

namespace
{

/** Config A of the golden set: WS 2x2 grid behind the shared L2. */
MultiCoreTraceConfig
configA()
{
    MultiCoreTraceConfig cfg;
    cfg.pr = cfg.pc = 2;
    cfg.arrayRows = cfg.arrayCols = 16;
    cfg.dataflow = Dataflow::WeightStationary;
    cfg.l1.ifmapWords = 4096;
    cfg.l1.filterWords = 4096;
    return cfg;
}

/** Config B: OS 2x2, no L2, bandwidth-starved DRAM. */
MultiCoreTraceConfig
configB()
{
    MultiCoreTraceConfig cfg;
    cfg.pr = cfg.pc = 2;
    cfg.arrayRows = cfg.arrayCols = 16;
    cfg.dataflow = Dataflow::OutputStationary;
    cfg.useL2 = false;
    cfg.dramWordsPerCycle = 4.0;
    return cfg;
}

/** Config C: IS 1x4 on a conv layer, with L2. */
MultiCoreTraceConfig
configC()
{
    MultiCoreTraceConfig cfg;
    cfg.pr = 1;
    cfg.pc = 4;
    cfg.arrayRows = cfg.arrayCols = 8;
    cfg.dataflow = Dataflow::InputStationary;
    cfg.l1.ifmapWords = 2048;
    cfg.l1.filterWords = 2048;
    cfg.dramWordsPerCycle = 8.0;
    return cfg;
}

const LayerSpec&
layerA()
{
    static const LayerSpec layer = LayerSpec::gemm("g", 256, 128, 128);
    return layer;
}

const LayerSpec&
layerB()
{
    static const LayerSpec layer = LayerSpec::gemm("g", 96, 64, 48);
    return layer;
}

const LayerSpec&
layerC()
{
    static const LayerSpec layer = LayerSpec::conv("c", 14, 14, 3, 3,
                                                   32, 64, 1);
    return layer;
}

MultiCoreTraceResult
run(MultiCoreTraceConfig cfg, const LayerSpec& layer,
    ContentionModel model)
{
    cfg.contention = model;
    MultiCoreTraceSimulator sim(cfg);
    return sim.runLayer(layer);
}

/** Byte-exact stats dump of one result. */
std::string
statsDump(const MultiCoreTraceResult& result)
{
    obs::StatsRegistry reg;
    result.registerStats(reg);
    std::ostringstream out;
    reg.dump(out);
    return out.str();
}

} // namespace

// ---------------------------------------------------------------------
// Golden pinning: ContentionModel::Shared must reproduce the serial
// co-step loop's results bit-for-bit. The digest covers the full stats
// dump (L2, arbiter occupancy, per-core CPI stacks and port waits).

namespace
{

std::uint64_t
dumpDigest(const MultiCoreTraceResult& result)
{
    const std::string dump = statsDump(result);
    return Fnv1a::of(dump.data(), dump.size());
}

} // namespace

TEST(Contention, SharedModeMatchesGoldenA)
{
    const auto r = run(configA(), layerA(), ContentionModel::Shared);
    EXPECT_EQ(r.makespan, 6251u);
    ASSERT_EQ(r.perCore.size(), 4u);
    const Cycle golden_total[] = {6251, 5338, 5348, 5359};
    const Cycle golden_stall[] = {1419, 506, 516, 527};
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(r.perCore[i].totalCycles, golden_total[i]) << i;
        EXPECT_EQ(r.perCore[i].stallCycles, golden_stall[i]) << i;
    }
    EXPECT_EQ(r.arb.grants, 21504u);
    EXPECT_EQ(r.arb.arbConflicts, 25553u);
    EXPECT_EQ(dumpDigest(r), 0x6dd73b2d1d251d4cull);
}

TEST(Contention, SharedModeMatchesGoldenB)
{
    const auto r = run(configB(), layerB(), ContentionModel::Shared);
    EXPECT_EQ(r.makespan, 4988u);
    ASSERT_EQ(r.perCore.size(), 4u);
    const Cycle golden_total[] = {4028, 4348, 4668, 4988};
    const Cycle golden_stall[] = {3464, 3784, 4104, 4424};
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(r.perCore[i].totalCycles, golden_total[i]) << i;
        EXPECT_EQ(r.perCore[i].stallCycles, golden_stall[i]) << i;
    }
    EXPECT_EQ(r.arb.grants, 912u);
    EXPECT_EQ(r.arb.arbConflicts, 614u);
    EXPECT_EQ(dumpDigest(r), 0x006e66b4453a7f6cull);
}

TEST(Contention, SharedModeMatchesGoldenC)
{
    const auto r = run(configC(), layerC(), ContentionModel::Shared);
    EXPECT_EQ(r.makespan, 19964u);
    ASSERT_EQ(r.perCore.size(), 4u);
    const Cycle golden_total[] = {19932, 19728, 19772, 19964};
    const Cycle golden_stall[] = {4452, 4248, 4292, 4484};
    for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(r.perCore[i].totalCycles, golden_total[i]) << i;
        EXPECT_EQ(r.perCore[i].stallCycles, golden_stall[i]) << i;
    }
    EXPECT_EQ(r.arb.grants, 6480u);
    EXPECT_EQ(r.arb.arbConflicts, 140u);
    EXPECT_EQ(dumpDigest(r), 0xb4c9dd8d0e8909d8ull);
}

TEST(Contention, OperandOffsetsReachTheSharedL2)
{
    // Shared-L2 lines are aligned in the address space. With an odd
    // row pitch (N = 50) filter rows start at every alignment, so
    // moving the filter region by half a line changes how many lines
    // its bursts touch: a run that ignored the offsets would not move.
    // The defaults are MemoryConfig's, which the goldens above pin.
    EXPECT_EQ(MultiCoreTraceConfig{}.ifmapOffset,
              MemoryConfig{}.ifmapOffset);
    EXPECT_EQ(MultiCoreTraceConfig{}.filterOffset,
              MemoryConfig{}.filterOffset);
    EXPECT_EQ(MultiCoreTraceConfig{}.ofmapOffset,
              MemoryConfig{}.ofmapOffset);
    const LayerSpec layer = LayerSpec::gemm("odd", 96, 50, 100);
    const auto base = run(configA(), layer, ContentionModel::Shared);
    MultiCoreTraceConfig shifted = configA();
    shifted.filterOffset += shifted.l2.lineWords / 2;
    const auto moved = run(shifted, layer, ContentionModel::Shared);
    EXPECT_NE(moved.l2.lookups, base.l2.lookups);
}

// ---------------------------------------------------------------------
// Arbiter grant order.

TEST(Arbiter, GrantIsArgminOverCycleAndRoundRobinDistance)
{
    // The one-pass grant must pick what a brute-force argmin over
    // (cycle, (i - priority) mod N) picks, count the other ports at
    // the granted cycle as waiters, and rotate the priority past the
    // grantee. Cycles are drawn from a narrow range so ties are common;
    // idle ports, all-idle and all-tied vectors are mixed in.
    constexpr Cycle kIdle = systolic::DoubleBufferedScratchpad::kNoEvent;
    Rng rng(0xa4b17e5);
    for (std::size_t ports = 1; ports <= 17; ++ports) {
        RoundRobinArbiter arb(ports);
        std::size_t prio = 0;
        Count grants = 0;
        Count conflicts = 0;
        obs::Histogram waiters;
        std::vector<Cycle> next(ports);
        for (int round = 0; round < 400; ++round) {
            const int kind = round % 10;
            for (std::size_t i = 0; i < ports; ++i) {
                if (kind == 0)
                    next[i] = kIdle;
                else if (kind == 1)
                    next[i] = 42;
                else
                    next[i] = rng.below(4) == 0 ? kIdle : rng.range(0, 5);
            }

            auto key = [&](std::size_t i) {
                return std::pair{next[i], (i + ports - prio) % ports};
            };
            std::size_t want = RoundRobinArbiter::kNone;
            for (std::size_t i = 0; i < ports; ++i) {
                if (next[i] != kIdle
                    && (want == RoundRobinArbiter::kNone
                        || key(i) < key(want)))
                    want = i;
            }

            const std::size_t got = arb.grant(next, kIdle);
            ASSERT_EQ(got, want) << ports << " ports, round " << round;
            if (want == RoundRobinArbiter::kNone)
                continue;
            Count tied = 0;
            for (std::size_t i = 0; i < ports; ++i)
                tied += i != want && next[i] == next[want];
            ++grants;
            conflicts += tied;
            waiters.sample(static_cast<double>(tied));
            prio = (want + 1) % ports;
        }
        const ArbiterStats& st = arb.stats();
        EXPECT_EQ(st.grants, grants) << ports;
        EXPECT_EQ(st.arbConflicts, conflicts) << ports;
        EXPECT_EQ(st.waiters.count, waiters.count) << ports;
        EXPECT_EQ(st.waiters.sum, waiters.sum) << ports;
        EXPECT_EQ(st.waiters.maxSample, waiters.maxSample) << ports;
        for (unsigned b = 0; b < obs::Histogram::kBuckets; ++b)
            EXPECT_EQ(st.waiters.buckets[b], waiters.buckets[b])
                << ports << " ports, bucket " << b;
    }
}

TEST(Arbiter, GrantAfterStepMatchesGrant)
{
    // grantAfterStep() must pick the port grant() picks and record the
    // same statistics whenever only the previous grantee's cycle moved:
    // staying at the granted cycle, moving to a later cycle (tied with
    // others, before them all, or after them), going idle, or stepping
    // back before the minimum.
    constexpr Cycle kIdle = systolic::DoubleBufferedScratchpad::kNoEvent;
    Rng rng(0x57e9);
    for (std::size_t ports = 1; ports <= 17; ++ports) {
        RoundRobinArbiter scanned(ports);
        RoundRobinArbiter stepped(ports);
        std::vector<Cycle> next(ports);
        for (int layer = 0; layer < 20; ++layer) {
            for (Cycle& c : next)
                c = rng.below(5) == 0 ? kIdle : rng.range(0, 6);
            std::size_t want = scanned.grant(next, kIdle);
            std::size_t got = stepped.grant(next, kIdle);
            while (want != RoundRobinArbiter::kNone) {
                ASSERT_EQ(got, want) << ports << " ports";
                Cycle& moved = next[want];
                // Kinds 2-4 leave it at the granted cycle.
                const auto kind = rng.below(12);
                if (kind == 0)
                    moved = kIdle;
                else if (kind == 1 && moved > 0)
                    --moved;
                else if (kind >= 5)
                    moved += rng.range(1, 4);
                want = scanned.grant(next, kIdle);
                got = stepped.grantAfterStep(next, kIdle);
            }
            ASSERT_EQ(got, RoundRobinArbiter::kNone) << ports;
        }
        const ArbiterStats a = scanned.stats();
        const ArbiterStats b = stepped.stats();
        EXPECT_EQ(a.grants, b.grants) << ports;
        EXPECT_EQ(a.arbConflicts, b.arbConflicts) << ports;
        EXPECT_EQ(a.waiters.sumSq, b.waiters.sumSq) << ports;
        for (unsigned i = 0; i < obs::Histogram::kBuckets; ++i)
            EXPECT_EQ(a.waiters.buckets[i], b.waiters.buckets[i]) << ports;
    }
}

// ---------------------------------------------------------------------
// Shared-mode semantics.

TEST(Contention, SharedModeIsDeterministic)
{
    // Two independent runs of the interleaved co-simulation produce
    // byte-identical stats dumps.
    const std::string first = statsDump(
        run(configA(), layerA(), ContentionModel::Shared));
    const std::string second = statsDump(
        run(configA(), layerA(), ContentionModel::Shared));
    EXPECT_EQ(first, second);
    EXPECT_FALSE(first.empty());
}

TEST(Contention, SharedSlowerThanStaticWhenStarved)
{
    // On a bandwidth-starved config the cores collide on the shared
    // bus, with a nonzero conflict count to show it; the traffic is
    // golden B's, since contention moves only the timing.
    const auto sh = run(configB(), layerB(), ContentionModel::Shared);
    EXPECT_GT(sh.arb.arbConflicts, 0u);
    EXPECT_GT(sh.arb.grants, 0u);
    EXPECT_EQ(sh.dramReadWords, 15360u);
    EXPECT_EQ(sh.dramWriteWords, 6144u);
    EXPECT_EQ(sh.l1FillWords, 15360u);
}

TEST(Contention, SharedModeChargesWaitToCores)
{
    const auto r = run(configB(), layerB(), ContentionModel::Shared);
    ASSERT_EQ(r.ports.size(), 4u);
    std::uint64_t total_wait = 0;
    for (const auto& port : r.ports) {
        EXPECT_EQ(port.readWords, 3840u);
        EXPECT_EQ(port.writeWords, 1536u);
        total_wait += port.waitCycles;
    }
    EXPECT_GT(total_wait, 0u);
}

TEST(Contention, FillWordsEqualL2Service)
{
    // l1FillWords counts words the cores pulled from their backing
    // view; with the L2 on, every such word is served by the L2 as
    // either a hit or a miss — the sums must match exactly.
    const auto a = run(configA(), layerA(), ContentionModel::Shared);
    EXPECT_EQ(a.l1FillWords, a.l2.hitWords + a.l2.missWords);
    const auto c = run(configC(), layerC(), ContentionModel::Shared);
    EXPECT_EQ(c.l1FillWords, c.l2.hitWords + c.l2.missWords);
}

// ---------------------------------------------------------------------
// Zero-share cores: a grid wider than the mapped dims leaves
// default-constructed perCore/ports slots. Stats registration, the
// arbiter port count, and the conservation laws must all stay correct
// with idle cores.

namespace
{

/** OS 4x4 grid on a 2-row GEMM: row shares {1,1,0,0} leave cores
    8..15 with nothing mapped. */
MultiCoreTraceConfig
zeroShareConfig()
{
    MultiCoreTraceConfig cfg;
    cfg.pr = cfg.pc = 4;
    cfg.arrayRows = cfg.arrayCols = 8;
    cfg.dataflow = Dataflow::OutputStationary;
    return cfg;
}

const LayerSpec&
zeroShareLayer()
{
    static const LayerSpec layer = LayerSpec::gemm("thin", 2, 64, 64);
    return layer;
}

} // namespace

TEST(ZeroShareCores, StatsAndConservationLawsHold)
{
    const auto r = run(zeroShareConfig(), zeroShareLayer(),
                       ContentionModel::Shared);
    ASSERT_EQ(r.perCore.size(), 16u);
    ASSERT_EQ(r.ports.size(), 16u);
    EXPECT_GT(r.makespan, 0u);
    EXPECT_GT(r.arb.grants, 0u);
    // Rows 2 and 3 of the grid get a zero share of the 2-row GEMM:
    // their slots stay default-constructed.
    for (std::size_t core = 8; core < 16; ++core) {
        EXPECT_EQ(r.perCore[core].totalCycles, 0u) << core;
        EXPECT_EQ(r.ports[core].readRequests, 0u) << core;
        EXPECT_EQ(r.ports[core].totalReadLatency, 0u) << core;
    }
    // Registration covers every slot, idle ones included.
    const std::string dump = statsDump(r);
    EXPECT_NE(dump.find("mc.core0.totalCycles"), std::string::npos);
    EXPECT_NE(dump.find("mc.core15.totalCycles"), std::string::npos);

    check::InvariantAuditor auditor;
    auditor.auditArbiter(r, true, "zeroShare");
    for (std::size_t core = 0; core < r.perCore.size(); ++core) {
        auditor.auditStallAccounting(r.perCore[core], "zeroShare");
        auditor.auditCpiStack(r.perCore[core].cpi,
                              r.perCore[core].totalCycles,
                              "zeroShare");
    }
    EXPECT_TRUE(auditor.report().clean());
}

// ---------------------------------------------------------------------
// Port-level cpi.conservation: the read-latency split must cover the
// total exactly. MemoryPort charges each read's issue wait at the
// shared serialization point as readPortWait and the rest of its round
// trip (for the L2, all of its hit/fill/transfer time) as readService.

TEST(PortLatencySplit, ConservesTotalReadLatencyWithL2)
{
    const auto r = run(configA(), layerA(), ContentionModel::Shared);
    ASSERT_EQ(r.ports.size(), 4u);
    for (std::size_t i = 0; i < r.ports.size(); ++i) {
        const auto& port = r.ports[i];
        ASSERT_GT(port.readRequests, 0u) << i;
        EXPECT_EQ(port.readPortWait + port.readQueueWait
                      + port.readRefresh + port.readService,
                  port.totalReadLatency)
            << i;
        // Neither the L2 nor the bus behind it has a controller queue,
        // so everything beyond the issue wait is readService.
        EXPECT_EQ(port.readQueueWait, 0u) << i;
        EXPECT_GT(port.readService, 0u) << i;
        // waitCycles also accumulates write-issue waits, so it bounds
        // the read-only portWait component from above.
        EXPECT_LE(port.readPortWait, port.waitCycles) << i;
    }
}

TEST(PortLatencySplit, ConservesTotalReadLatencyWithoutL2)
{
    const auto r = run(configB(), layerB(), ContentionModel::Shared);
    ASSERT_EQ(r.ports.size(), 4u);
    for (std::size_t i = 0; i < r.ports.size(); ++i) {
        const auto& port = r.ports[i];
        EXPECT_EQ(port.readPortWait + port.readQueueWait
                      + port.readRefresh + port.readService,
                  port.totalReadLatency)
            << i;
        // The bus's only wait is the issue wait, which the port
        // charges as readPortWait, never as a queue wait.
        EXPECT_EQ(port.readQueueWait, 0u) << i;
        EXPECT_GT(port.readService, 0u) << i;
    }
}

TEST(Contention, L2OffPortSplitIsWaitPlusService)
{
    // With no L2 the ports sit in front of the fixed-bandwidth bus,
    // which has no controller queue or refresh: each read's issue wait
    // is port wait and the rest of its round trip is service.
    const auto r = run(configB(), layerB(), ContentionModel::Shared);
    ASSERT_EQ(r.ports.size(), 4u);
    Cycle port_wait = 0;
    for (std::size_t i = 0; i < r.ports.size(); ++i) {
        const auto& port = r.ports[i];
        ASSERT_GT(port.readRequests, 0u) << i;
        EXPECT_EQ(port.readQueueWait, 0u) << i;
        EXPECT_EQ(port.readRefresh, 0u) << i;
        EXPECT_EQ(port.readPortWait + port.readService,
                  port.totalReadLatency)
            << i;
        port_wait += port.readPortWait;
    }
    EXPECT_GT(port_wait, 0u);

    check::InvariantAuditor auditor;
    auditor.auditArbiter(r, false, "l2Off");
    EXPECT_TRUE(auditor.report().clean());
    EXPECT_GT(auditor.report().checksForLaw("cpi.conservation"), 0u);
}

// ---------------------------------------------------------------------
// Spatial-partition operand views: per-core ofmap tiles exactly
// partition the global ofmap, and replicated ifmap/filter tiles land on
// identical global addresses (the shared-L2 dedup invariant, §III-B).

namespace
{

struct PartitionGeometry
{
    GemmDims gemm;
    systolic::OperandMap global;
    std::vector<std::uint64_t> srStarts;
    std::vector<std::uint64_t> scStarts;
};

PartitionGeometry
geometry(Dataflow df, const GemmDims& gemm, std::uint64_t pr,
         std::uint64_t pc)
{
    const MappedDims mapped = systolic::mapGemmConventional(gemm, df);
    MemoryConfig mem;
    return {gemm, systolic::OperandMap(gemm, mem),
            MultiCoreTraceSimulator::shareStarts(mapped.sr, pr),
            MultiCoreTraceSimulator::shareStarts(mapped.sc, pc)};
}

MultiCoreTraceSimulator::CorePartition
partitionOf(Dataflow df, const PartitionGeometry& geo, std::uint64_t i,
            std::uint64_t j)
{
    return MultiCoreTraceSimulator::corePartition(
        df, geo.gemm, geo.global, geo.srStarts[i],
        geo.srStarts[i + 1] - geo.srStarts[i], geo.scStarts[j],
        geo.scStarts[j + 1] - geo.scStarts[j]);
}

std::set<Addr>
ofmapAddrs(const MultiCoreTraceSimulator::CorePartition& part)
{
    std::set<Addr> addrs;
    for (std::uint64_t m = 0; m < part.share.m; ++m)
        for (std::uint64_t n = 0; n < part.share.n; ++n)
            addrs.insert(part.view.ofmapAddr(m, n));
    return addrs;
}

std::set<Addr>
ifmapAddrs(const MultiCoreTraceSimulator::CorePartition& part)
{
    std::set<Addr> addrs;
    for (std::uint64_t m = 0; m < part.share.m; ++m)
        for (std::uint64_t k = 0; k < part.share.k; ++k)
            addrs.insert(part.view.ifmapAddr(m, k));
    return addrs;
}

std::set<Addr>
filterAddrs(const MultiCoreTraceSimulator::CorePartition& part)
{
    std::set<Addr> addrs;
    for (std::uint64_t k = 0; k < part.share.k; ++k)
        for (std::uint64_t n = 0; n < part.share.n; ++n)
            addrs.insert(part.view.filterAddr(k, n));
    return addrs;
}

/**
 * Assert that the tiles of the cores in `owners` exactly cover
 * [base, base + count) with no overlap and no gap.
 */
void
expectExactCover(const std::vector<std::set<Addr>>& owners, Addr base,
                 std::uint64_t count)
{
    std::set<Addr> seen;
    std::uint64_t total = 0;
    for (const auto& tile : owners) {
        total += tile.size();
        seen.insert(tile.begin(), tile.end());
    }
    EXPECT_EQ(total, count) << "tiles overlap";
    ASSERT_EQ(seen.size(), count) << "tiles leave gaps";
    EXPECT_EQ(*seen.begin(), base);
    EXPECT_EQ(*seen.rbegin(), base + count - 1);
}

} // namespace

TEST(PartitionViews, OutputStationaryTilesOfmapExactly)
{
    // Ragged dims: shares are uneven on purpose.
    const GemmDims gemm{37, 19, 23};
    const std::uint64_t pr = 2, pc = 3;
    const auto geo = geometry(Dataflow::OutputStationary, gemm, pr, pc);

    // OS partitions the ofmap in 2D: every core owns a distinct tile.
    std::vector<std::set<Addr>> tiles;
    for (std::uint64_t i = 0; i < pr; ++i)
        for (std::uint64_t j = 0; j < pc; ++j)
            tiles.push_back(ofmapAddrs(
                partitionOf(Dataflow::OutputStationary, geo, i, j)));
    expectExactCover(tiles, geo.global.ofmapBase, gemm.m * gemm.n);

    // Ifmap replicates along grid columns, filter along grid rows.
    for (std::uint64_t i = 0; i < pr; ++i) {
        const auto base = ifmapAddrs(
            partitionOf(Dataflow::OutputStationary, geo, i, 0));
        for (std::uint64_t j = 1; j < pc; ++j)
            EXPECT_EQ(base,
                      ifmapAddrs(partitionOf(
                          Dataflow::OutputStationary, geo, i, j)));
    }
    for (std::uint64_t j = 0; j < pc; ++j) {
        const auto base = filterAddrs(
            partitionOf(Dataflow::OutputStationary, geo, 0, j));
        for (std::uint64_t i = 1; i < pr; ++i)
            EXPECT_EQ(base,
                      filterAddrs(partitionOf(
                          Dataflow::OutputStationary, geo, i, j)));
    }
}

TEST(PartitionViews, WeightStationaryTilesOfmapExactly)
{
    const GemmDims gemm{37, 19, 23};
    const std::uint64_t pr = 2, pc = 3;
    const auto geo = geometry(Dataflow::WeightStationary, gemm, pr, pc);

    // WS partitions K across grid rows: within one row the column
    // shares tile the ofmap; the other rows replicate those tiles
    // (partial-sum accumulation hits the same addresses).
    std::vector<std::set<Addr>> tiles;
    for (std::uint64_t j = 0; j < pc; ++j)
        tiles.push_back(ofmapAddrs(
            partitionOf(Dataflow::WeightStationary, geo, 0, j)));
    expectExactCover(tiles, geo.global.ofmapBase, gemm.m * gemm.n);
    for (std::uint64_t i = 1; i < pr; ++i)
        for (std::uint64_t j = 0; j < pc; ++j)
            EXPECT_EQ(tiles[j],
                      ofmapAddrs(partitionOf(
                          Dataflow::WeightStationary, geo, i, j)));

    // Ifmap replicates along grid columns; filter tiles partition the
    // whole filter space in 2D.
    for (std::uint64_t i = 0; i < pr; ++i) {
        const auto base = ifmapAddrs(
            partitionOf(Dataflow::WeightStationary, geo, i, 0));
        for (std::uint64_t j = 1; j < pc; ++j)
            EXPECT_EQ(base,
                      ifmapAddrs(partitionOf(
                          Dataflow::WeightStationary, geo, i, j)));
    }
    std::vector<std::set<Addr>> filter_tiles;
    for (std::uint64_t i = 0; i < pr; ++i)
        for (std::uint64_t j = 0; j < pc; ++j)
            filter_tiles.push_back(filterAddrs(
                partitionOf(Dataflow::WeightStationary, geo, i, j)));
    expectExactCover(filter_tiles, geo.global.filterBase,
                     gemm.k * gemm.n);
}

TEST(PartitionViews, InputStationaryTilesOfmapExactly)
{
    const GemmDims gemm{37, 19, 23};
    const std::uint64_t pr = 2, pc = 3;
    const auto geo = geometry(Dataflow::InputStationary, gemm, pr, pc);

    // IS partitions K across grid rows and M across grid columns: one
    // grid row's column shares tile the ofmap, other rows replicate.
    std::vector<std::set<Addr>> tiles;
    for (std::uint64_t j = 0; j < pc; ++j)
        tiles.push_back(ofmapAddrs(
            partitionOf(Dataflow::InputStationary, geo, 0, j)));
    expectExactCover(tiles, geo.global.ofmapBase, gemm.m * gemm.n);
    for (std::uint64_t i = 1; i < pr; ++i)
        for (std::uint64_t j = 0; j < pc; ++j)
            EXPECT_EQ(tiles[j],
                      ofmapAddrs(partitionOf(
                          Dataflow::InputStationary, geo, i, j)));

    // Ifmap tiles partition the whole ifmap in 2D; filter replicates
    // along grid columns.
    std::vector<std::set<Addr>> ifmap_tiles;
    for (std::uint64_t i = 0; i < pr; ++i)
        for (std::uint64_t j = 0; j < pc; ++j)
            ifmap_tiles.push_back(ifmapAddrs(
                partitionOf(Dataflow::InputStationary, geo, i, j)));
    expectExactCover(ifmap_tiles, geo.global.ifmapBase,
                     gemm.m * gemm.k);
    for (std::uint64_t i = 0; i < pr; ++i) {
        const auto base = filterAddrs(
            partitionOf(Dataflow::InputStationary, geo, i, 0));
        for (std::uint64_t j = 1; j < pc; ++j)
            EXPECT_EQ(base,
                      filterAddrs(partitionOf(
                          Dataflow::InputStationary, geo, i, j)));
    }
}

TEST(PartitionViews, ReplicatedTilesDeduplicateInL2)
{
    // End-to-end: with the shared L2 on, the replicated partitions
    // must be served once from DRAM — DRAM read traffic falls well
    // below the sum of core fills, for every dataflow.
    for (Dataflow df : {Dataflow::OutputStationary,
                        Dataflow::WeightStationary,
                        Dataflow::InputStationary}) {
        MultiCoreTraceConfig cfg;
        cfg.pr = cfg.pc = 2;
        cfg.arrayRows = cfg.arrayCols = 16;
        cfg.dataflow = df;
        cfg.l1.ifmapWords = 4096;
        cfg.l1.filterWords = 4096;
        MultiCoreTraceSimulator sim(cfg);
        const auto r = sim.runLayer(LayerSpec::gemm("g", 128, 96, 64));
        EXPECT_LT(r.dramReadWords, r.l1FillWords) << toString(df);
        EXPECT_GT(r.l2.hits, 0u) << toString(df);
    }
}
