/**
 * @file
 * Unit tests for the multi-core module: partition runtime equations
 * (Eqs. 1-3), footprint and L2-dedup accounting, partition search,
 * SIMD/vector units, heterogeneous cores, and non-uniform (NoP-aware)
 * workload partitioning, and the whole-topology multi-core run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <list>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "core/simulator.hpp"
#include "multicore/system.hpp"
#include "multicore/trace_sim.hpp"
#include "systolic/scratchpad.hpp"

using namespace scalesim;
using namespace scalesim::multicore;

TEST(Partition, EquationOneSpatial)
{
    // OS mapping: Sr = M, Sc = N, T = K.
    const GemmDims gemm{1000, 5000, 2000};
    const std::uint32_t r = 16, c = 16;
    const auto eval = evaluatePartition(gemm,
                                        Dataflow::OutputStationary, r,
                                        c, 4, 8,
                                        PartitionScheme::Spatial);
    const Cycle expect = (2ull * r + c + 2000 - 2)
        * ceilDiv(1000, 4ull * r) * ceilDiv(5000, 8ull * c);
    EXPECT_EQ(eval.cycles, expect);
}

TEST(Partition, EquationTwoSpatioTemporal1)
{
    const GemmDims gemm{1000, 5000, 2000};
    const std::uint32_t r = 16, c = 16;
    const auto eval = evaluatePartition(
        gemm, Dataflow::OutputStationary, r, c, 4, 8,
        PartitionScheme::SpatioTemporal1);
    const Cycle expect = (2ull * r + c + ceilDiv(2000, 8) - 2)
        * ceilDiv(1000, 4ull * r) * ceilDiv(5000, c);
    EXPECT_EQ(eval.cycles, expect);
}

TEST(Partition, EquationThreeSpatioTemporal2)
{
    const GemmDims gemm{1000, 5000, 2000};
    const std::uint32_t r = 16, c = 16;
    const auto eval = evaluatePartition(
        gemm, Dataflow::OutputStationary, r, c, 4, 8,
        PartitionScheme::SpatioTemporal2);
    const Cycle expect = (2ull * r + c + ceilDiv(2000, 4) - 2)
        * ceilDiv(1000, static_cast<std::uint64_t>(r))
        * ceilDiv(5000, 8ull * c);
    EXPECT_EQ(eval.cycles, expect);
}

TEST(Partition, SingleCoreMatchesFoldGrid)
{
    const GemmDims gemm{300, 200, 100};
    const systolic::FoldGrid grid(gemm, Dataflow::WeightStationary, 32,
                                  32);
    const auto eval = evaluatePartition(gemm,
                                        Dataflow::WeightStationary, 32,
                                        32, 1, 1,
                                        PartitionScheme::Spatial);
    EXPECT_EQ(eval.cycles, grid.totalCycles());
}

TEST(Partition, MoreCoresNeverSlower)
{
    const GemmDims gemm{4096, 4096, 1024};
    Cycle prev = ~static_cast<Cycle>(0);
    for (std::uint64_t cores : {1ull, 4ull, 16ull, 64ull}) {
        const auto evals = enumeratePartitions(
            gemm, Dataflow::OutputStationary, 16, 16, cores,
            PartitionScheme::Spatial);
        const Cycle best = bestByCycles(evals).cycles;
        EXPECT_LE(best, prev);
        prev = best;
    }
}

TEST(Partition, L2DedupSavesForSpatial)
{
    const GemmDims gemm{1024, 1024, 1024};
    const auto eval = evaluatePartition(gemm,
                                        Dataflow::OutputStationary, 16,
                                        16, 4, 4,
                                        PartitionScheme::Spatial);
    EXPECT_LT(eval.l2FootprintWords, eval.footprintWords);
}

TEST(Partition, SpatioTemporalTradesFootprintForCycles)
{
    // Paper Fig. 3a: among compute-optimal choices, spatio-temporal
    // partitioning sometimes achieves a smaller memory footprint at
    // competitive cycles (it stores Sr x T once instead of Pc copies);
    // Fig. 3b: among footprint-optimal choices, spatial usually wins.
    bool st_smaller_when_compute_optimal = false;
    bool spatial_wins_somewhere = false;
    for (std::uint64_t m : {1000ull, 5000ull, 10000ull}) {
        for (std::uint64_t k : {1000ull, 5000ull, 10000ull}) {
            const GemmDims gemm{m, 5000, k};
            for (std::uint64_t cores : {16ull, 64ull}) {
                const auto spatial = bestByCycles(enumeratePartitions(
                    gemm, Dataflow::OutputStationary, 16, 16, cores,
                    PartitionScheme::Spatial));
                const auto st1 = bestByCycles(enumeratePartitions(
                    gemm, Dataflow::OutputStationary, 16, 16, cores,
                    PartitionScheme::SpatioTemporal1));
                if (st1.cycles <= spatial.cycles * 105 / 100
                    && st1.footprintWords < spatial.footprintWords) {
                    st_smaller_when_compute_optimal = true;
                }
                if (spatial.footprintWords <= st1.footprintWords
                    && spatial.cycles <= st1.cycles) {
                    spatial_wins_somewhere = true;
                }
            }
        }
    }
    EXPECT_TRUE(st_smaller_when_compute_optimal);
    EXPECT_TRUE(spatial_wins_somewhere);
}

TEST(Partition, EnumerateCoversAllFactorizations)
{
    const GemmDims gemm{128, 128, 128};
    const auto evals = enumeratePartitions(gemm,
                                           Dataflow::OutputStationary,
                                           8, 8, 12,
                                           PartitionScheme::Spatial);
    // 12 = 1x12, 2x6, 3x4, 4x3, 6x2, 12x1.
    EXPECT_EQ(evals.size(), 6u);
    for (const auto& e : evals)
        EXPECT_EQ(e.cores(), 12u);
}

TEST(Partition, BestSelectorsDiffer)
{
    const GemmDims gemm{10000, 1000, 1000};
    const auto evals = enumeratePartitions(gemm,
                                           Dataflow::OutputStationary,
                                           16, 16, 16,
                                           PartitionScheme::Spatial);
    const auto by_cycles = bestByCycles(evals);
    const auto by_footprint = bestByFootprint(evals);
    EXPECT_LE(by_cycles.cycles, by_footprint.cycles);
    EXPECT_LE(by_footprint.footprintWords, by_cycles.footprintWords);
}

TEST(Simd, CyclesScaleWithLanesAndLatency)
{
    SimdConfig simd;
    simd.lanes = 16;
    simd.latencyPerOp = 1;
    EXPECT_EQ(simdCycles(simd, VectorOp::Activation, 256), 16u);
    EXPECT_EQ(simdCycles(simd, VectorOp::Activation, 257), 17u);
    EXPECT_EQ(simdCycles(simd, VectorOp::Softmax, 256), 48u);
    EXPECT_EQ(simdCycles(simd, VectorOp::None, 256), 0u);
    simd.latencyPerOp = 4; // customizable latency (§III-C)
    EXPECT_EQ(simdCycles(simd, VectorOp::Activation, 256), 64u);
    simd.lanes = 64;
    simd.latencyPerOp = 1;
    EXPECT_EQ(simdCycles(simd, VectorOp::Activation, 256), 4u);
}

TEST(System, HomogeneousGridRuns)
{
    TensorCoreConfig core;
    core.arrayRows = 16;
    core.arrayCols = 16;
    const auto cfg = MultiCoreConfig::homogeneous(core, 2, 2);
    MultiCoreSimulator sim(cfg);
    const GemmDims gemm{512, 512, 256};
    const auto result = sim.runGemm(gemm, Dataflow::OutputStationary);
    EXPECT_GT(result.makespan, 0u);
    EXPECT_EQ(result.perCore.size(), 4u);
    EXPECT_GE(result.imbalance, 1.0);
    EXPECT_LT(result.l2FootprintWords, result.l1FootprintWords);
}

TEST(System, MulticoreFasterThanSingle)
{
    TensorCoreConfig core;
    core.arrayRows = 32;
    core.arrayCols = 32;
    const GemmDims gemm{2048, 2048, 512};
    MultiCoreSimulator one(MultiCoreConfig::homogeneous(core, 1, 1));
    MultiCoreSimulator sixteen(
        MultiCoreConfig::homogeneous(core, 4, 4));
    EXPECT_LT(sixteen.runGemm(gemm, Dataflow::WeightStationary).makespan,
              one.runGemm(gemm, Dataflow::WeightStationary).makespan);
}

TEST(System, HeterogeneousCoresImbalance)
{
    // One big core next to three small ones: the small cores lag.
    TensorCoreConfig small;
    small.arrayRows = small.arrayCols = 8;
    TensorCoreConfig big;
    big.arrayRows = big.arrayCols = 32;
    MultiCoreConfig cfg;
    cfg.pr = 2;
    cfg.pc = 2;
    cfg.cores = {big, small, small, small};
    MultiCoreSimulator sim(cfg);
    const auto result = sim.runGemm({1024, 1024, 256},
                                    Dataflow::OutputStationary);
    EXPECT_GT(result.imbalance, 1.05);
}

TEST(System, NonUniformPartitioningHelpsSkewedNop)
{
    TensorCoreConfig core;
    core.arrayRows = core.arrayCols = 16;
    MultiCoreConfig cfg = MultiCoreConfig::homogeneous(core, 4, 1);
    cfg.nop.latencyPerHop = 50;
    cfg.nop.wordsPerCycle = 1.0;
    cfg.nop.hops = {1, 2, 6, 12}; // Simba-style distance profile
    MultiCoreSimulator uniform(cfg);
    cfg.nonUniform = true;
    MultiCoreSimulator nonuniform(cfg);
    const GemmDims gemm{4096, 256, 256};
    const auto u = uniform.runGemm(gemm, Dataflow::OutputStationary);
    const auto n = nonuniform.runGemm(gemm, Dataflow::OutputStationary);
    EXPECT_LE(n.makespan, u.makespan);
    // The far core should have received less work.
    EXPECT_LT(n.perCore[3].rowShare, u.perCore[3].rowShare);
}

TEST(System, ConfigValidation)
{
    MultiCoreConfig cfg;
    cfg.pr = 2;
    cfg.pc = 2;
    cfg.cores.resize(3); // wrong
    EXPECT_THROW(MultiCoreSimulator sim(cfg), FatalError);
}

TEST(System, LayerEntryPoint)
{
    TensorCoreConfig core;
    core.arrayRows = core.arrayCols = 16;
    MultiCoreSimulator sim(MultiCoreConfig::homogeneous(core, 2, 2));
    const LayerSpec layer = LayerSpec::conv("c", 28, 28, 3, 3, 64, 128,
                                            1);
    const auto result = sim.runLayer(layer, Dataflow::WeightStationary);
    EXPECT_GT(result.makespan, 0u);
}

TEST(SharedL2, HitsOnRepeatedLines)
{
    systolic::BandwidthMemory dram(4.0);
    SharedL2Config cfg;
    cfg.capacityWords = 4096;
    cfg.lineWords = 64;
    SharedL2 l2(cfg, dram);
    // First read misses and fills from DRAM.
    const Cycle first = l2.issueRead(0, 64, 0);
    // Second read of the same line hits at L2 latency.
    const Cycle second = l2.issueRead(0, 64, 1000);
    EXPECT_GT(first, cfg.hitLatency);
    EXPECT_LE(second - 1000, cfg.hitLatency + 1);
    EXPECT_EQ(l2.l2Stats().hits, 1u);
    EXPECT_EQ(l2.l2Stats().lookups, 2u);
    // Only the miss reached DRAM.
    EXPECT_EQ(dram.stats().readWords, 64u);
}

TEST(SharedL2, LruEviction)
{
    systolic::BandwidthMemory dram(1e9);
    SharedL2Config cfg;
    cfg.capacityWords = 128; // two 64-word lines
    cfg.lineWords = 64;
    SharedL2 l2(cfg, dram);
    l2.issueRead(0, 64, 0);    // line 0
    l2.issueRead(64, 64, 0);   // line 1
    l2.issueRead(128, 64, 0);  // line 2 evicts line 0
    l2.issueRead(0, 64, 0);    // line 0 misses again
    EXPECT_EQ(l2.l2Stats().hits, 0u);
    EXPECT_EQ(l2.l2Stats().lookups, 4u);
}

TEST(SharedL2, WriteThroughAllocates)
{
    systolic::BandwidthMemory dram(1e9);
    SharedL2Config cfg;
    SharedL2 l2(cfg, dram);
    l2.issueWrite(0, 256, 0);
    EXPECT_EQ(dram.stats().writeWords, 256u);
    // Subsequent read of written lines hits.
    l2.issueRead(0, 256, 10);
    EXPECT_EQ(l2.l2Stats().hits, 1u); // 256 words = 1 line (default)
}

TEST(SharedL2, ZeroWordRequestTouchesNoLine)
{
    // A zero-word request at address 0 once walked (0 - 1) / lineWords
    // lines, about 2^56 of them. It covers no line: no lookup, no
    // refill, and the port is occupied for zero words.
    systolic::BandwidthMemory dram(4.0);
    SharedL2Config cfg;
    cfg.capacityWords = 256;
    cfg.lineWords = 64;
    SharedL2 l2(cfg, dram);
    EXPECT_EQ(l2.issueRead(0, 0, 10), 10 + cfg.hitLatency);
    l2.issueWrite(0, 0, 20);
    l2.issueRead(128, 0, 30);
    EXPECT_EQ(l2.l2Stats().lookups, 0u);
    EXPECT_EQ(l2.l2Stats().writeWords, 0u);
    EXPECT_EQ(dram.stats().readWords, 0u);
    EXPECT_EQ(dram.stats().writeWords, 0u);
    EXPECT_EQ(l2.stats().readRequests, 2u);
    EXPECT_EQ(l2.stats().writeRequests, 1u);
    // The port is still free at the next request's cycle.
    l2.issueRead(0, 64, 30);
    EXPECT_EQ(l2.lastIssueWait(), 0u);
    EXPECT_EQ(l2.l2Stats().lookups, 1u);
}

namespace
{

/**
 * Reference shared L2 for the differential test: the list + map LRU
 * the flat slot arrays replaced, with SharedL2's refill, port and
 * latency arithmetic restated line by line.
 */
class ReferenceL2
{
  public:
    ReferenceL2(const SharedL2Config& cfg, double dram_words_per_cycle)
        : cfg_(cfg), dram_(dram_words_per_cycle),
          capacityLines_(cfg.capacityWords / cfg.lineWords)
    {
    }

    Cycle
    read(Addr addr, Count words, Cycle now)
    {
        Cycle ready = now + cfg_.hitLatency;
        for (std::uint64_t line = addr / cfg_.lineWords;
             words != 0 && line <= (addr + words - 1) / cfg_.lineWords;
             ++line) {
            ++stats_.lookups;
            const std::uint64_t lo = line * cfg_.lineWords;
            const std::uint64_t overlap =
                std::min<std::uint64_t>(addr + words, lo + cfg_.lineWords)
                - std::max<std::uint64_t>(addr, lo);
            if (touch(line)) {
                ++stats_.hits;
                stats_.hitWords += overlap;
            } else {
                stats_.missWords += overlap;
                ready = std::max(ready, dram_.issueRead(lo, cfg_.lineWords,
                                                        now)
                                            + cfg_.hitLatency);
            }
        }
        return std::max(port(words, now), ready);
    }

    Cycle
    write(Addr addr, Count words, Cycle now)
    {
        for (std::uint64_t line = addr / cfg_.lineWords;
             words != 0 && line <= (addr + words - 1) / cfg_.lineWords;
             ++line)
            touch(line);
        stats_.writeWords += words;
        dram_.issueWrite(addr, words, now);
        return port(words, now);
    }

    void
    invalidate()
    {
        lru_.clear();
        where_.clear();
    }

    const SharedL2Stats& stats() const { return stats_; }
    const systolic::MemoryStats& dramStats() const
    {
        return dram_.stats();
    }

  private:
    bool
    touch(std::uint64_t line)
    {
        const auto it = where_.find(line);
        if (it != where_.end()) {
            lru_.splice(lru_.begin(), lru_, it->second);
            return true;
        }
        lru_.push_front(line);
        where_[line] = lru_.begin();
        if (lru_.size() > capacityLines_) {
            where_.erase(lru_.back());
            lru_.pop_back();
        }
        return false;
    }

    Cycle
    port(Count words, Cycle now)
    {
        const double start = std::max(static_cast<double>(now), free_);
        free_ = start + static_cast<double>(words) / cfg_.wordsPerCycle;
        return static_cast<Cycle>(std::ceil(free_));
    }

    SharedL2Config cfg_;
    systolic::BandwidthMemory dram_;
    std::uint64_t capacityLines_;
    std::list<std::uint64_t> lru_;
    std::map<std::uint64_t, std::list<std::uint64_t>::iterator> where_;
    SharedL2Stats stats_;
    double free_ = 0.0;
};

} // namespace

TEST(SharedL2, MatchesReferenceLru)
{
    // Random multi-line reads, write-allocates and zero-word requests
    // over a small address range, so evictions, re-references and
    // probe-chain deletions are common; invalidate() between phases.
    // Every returned cycle and the stats after every request must
    // match the reference. The 37-line L2 grows its index three times.
    Rng rng(0x12c0de);
    for (const std::uint64_t lines : {1, 2, 3, 4, 5, 6, 7, 8, 37}) {
        for (const std::uint32_t line_words : {1u, 4u, 16u}) {
            SharedL2Config cfg;
            cfg.capacityWords = lines * line_words;
            cfg.lineWords = line_words;
            cfg.hitLatency = rng.range(0, 6);
            cfg.wordsPerCycle = 2.0;
            systolic::BandwidthMemory dram(3.0);
            SharedL2 l2(cfg, dram);
            ReferenceL2 ref(cfg, 3.0);
            const std::uint64_t span_words = (3 * lines + 4) * line_words;
            Cycle now = 0;
            for (int phase = 0; phase < 4; ++phase) {
                for (int op = 0; op < 300; ++op) {
                    now += rng.below(4);
                    const Addr addr = rng.below(span_words);
                    const Count words = rng.below(8) == 0
                        ? 0 : rng.range(1, 3 * line_words);
                    const bool read = rng.below(3) != 0;
                    const Cycle got = read ? l2.issueRead(addr, words, now)
                                           : l2.issueWrite(addr, words,
                                                           now);
                    const Cycle want = read ? ref.read(addr, words, now)
                                            : ref.write(addr, words, now);
                    ASSERT_EQ(got, want) << lines << " lines of "
                                         << line_words << ", phase "
                                         << phase << ", op " << op;
                    const SharedL2Stats& a = l2.l2Stats();
                    const SharedL2Stats& b = ref.stats();
                    ASSERT_EQ(a.lookups, b.lookups) << op;
                    ASSERT_EQ(a.hits, b.hits) << op;
                    ASSERT_EQ(a.hitWords, b.hitWords) << op;
                    ASSERT_EQ(a.missWords, b.missWords) << op;
                    ASSERT_EQ(a.writeWords, b.writeWords) << op;
                }
                l2.invalidate();
                ref.invalidate();
            }
            EXPECT_EQ(dram.stats().readWords, ref.dramStats().readWords);
            EXPECT_EQ(dram.stats().writeWords,
                      ref.dramStats().writeWords);
            EXPECT_GT(l2.l2Stats().hits, 0u);
            EXPECT_LT(l2.l2Stats().hits, l2.l2Stats().lookups);
        }
    }
}

TEST(TraceSim, SharedL2DeduplicatesPartitions)
{
    // WS 2x2 grid: cores in the same row share the ifmap k-slice,
    // cores in the same column share the filter slice; with the L2 on,
    // DRAM traffic should drop well below the sum of core requests.
    const LayerSpec layer = LayerSpec::gemm("g", 256, 128, 128);
    MultiCoreTraceConfig cfg;
    cfg.pr = cfg.pc = 2;
    cfg.arrayRows = cfg.arrayCols = 16;
    cfg.dataflow = Dataflow::WeightStationary;
    cfg.l1.ifmapWords = 4096; // small L1s -> cores re-request
    cfg.l1.filterWords = 4096;

    MultiCoreTraceConfig no_l2 = cfg;
    no_l2.useL2 = false;
    MultiCoreTraceSimulator with(cfg);
    MultiCoreTraceSimulator without(no_l2);
    const auto w = with.runLayer(layer);
    const auto wo = without.runLayer(layer);
    ASSERT_EQ(w.perCore.size(), 4u);
    EXPECT_GT(w.l2.hitRate(), 0.2);
    EXPECT_LT(w.dramReadWords, wo.dramReadWords);
    EXPECT_LT(w.dramReadWords, w.l1FillWords);
}

TEST(TraceSim, PartitionsCoverTheWholeProblem)
{
    // Every core writes its own output share exactly once: summed
    // write traffic equals M x N.
    const LayerSpec layer = LayerSpec::gemm("g", 96, 64, 48);
    MultiCoreTraceConfig cfg;
    cfg.pr = 2;
    cfg.pc = 2;
    cfg.arrayRows = cfg.arrayCols = 16;
    cfg.dataflow = Dataflow::OutputStationary;
    cfg.useL2 = false;
    MultiCoreTraceSimulator sim(cfg);
    const auto result = sim.runLayer(layer);
    std::uint64_t writes = 0;
    for (const auto& core : result.perCore)
        writes += core.dramWriteWords;
    EXPECT_EQ(writes, 96u * 64u);
}

TEST(TraceSim, MakespanBelowSingleCore)
{
    const LayerSpec layer = LayerSpec::gemm("g", 512, 512, 128);
    MultiCoreTraceConfig multi;
    multi.pr = multi.pc = 2;
    multi.arrayRows = multi.arrayCols = 16;
    multi.dramWordsPerCycle = 1024.0; // compute-bound regime
    MultiCoreTraceConfig single = multi;
    single.pr = single.pc = 1;
    MultiCoreTraceSimulator m(multi);
    MultiCoreTraceSimulator s(single);
    EXPECT_LT(m.runLayer(layer).makespan, s.runLayer(layer).makespan);
}

TEST(TraceSim, IgnoredFeaturesNamedWhenOnNoneWhenOff)
{
    SimConfig cfg;
    for (const bool on : {true, false}) {
        cfg.dram.enabled = on;
        cfg.layout.enabled = on;
        cfg.energy.enabled = on;
        cfg.sparsity.enabled = on;
        const std::vector<std::string> want = on
            ? std::vector<std::string>{"[memory] DramModel",
                                       "[layout] LayoutModel",
                                       "[energy] EnergyModel",
                                       "[sparsity] SparsitySupport"}
            : std::vector<std::string>{};
        EXPECT_EQ(systolic::multiCoreIgnoredFeatures(cfg), want);
    }
}

TEST(TraceSim, RejectsOversizedGridsByName)
{
    // Construction alone must fail: no layer runs, nothing is sized
    // by the grid.
    MultiCoreTraceConfig cfg;
    cfg.pr = cfg.pc = std::uint64_t{1} << 32; // pr * pc wraps to 0
    EXPECT_THROW(MultiCoreTraceSimulator{cfg}, FatalError);
    cfg.pr = MultiCoreTraceSimulator::kMaxCores + 1;
    cfg.pc = 1;
    try {
        MultiCoreTraceSimulator sim(cfg);
        FAIL() << "a 4097x1 grid was accepted";
    } catch (const FatalError& err) {
        EXPECT_NE(std::string(err.what()).find(
                      "multi-core grid 4097x1 exceeds 4096 cores"),
                  std::string::npos)
            << err.what();
    }
}

namespace
{

/** A conv, a GEMM and a repeated GEMM on a starved shared bus. */
Topology
mixedTopology()
{
    Topology topo;
    topo.name = "mixed";
    topo.layers = {LayerSpec::conv("conv", 12, 12, 3, 3, 8, 20, 1),
                   LayerSpec::gemm("gemm", 64, 40, 48),
                   LayerSpec::gemm("rep", 36, 24, 56)};
    topo.layers[2].repetitions = 3;
    return topo;
}

SimConfig
starvedConfig()
{
    SimConfig cfg;
    cfg.arrayRows = cfg.arrayCols = 8;
    cfg.memory.bandwidthWordsPerCycle = 4.0;
    return cfg;
}

/** The dump lines of `reg` whose name starts with `prefix`. */
std::vector<std::string>
linesWithPrefix(const obs::StatsRegistry& reg, const std::string& prefix)
{
    std::ostringstream out;
    reg.dump(out);
    std::istringstream in(out.str());
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) {
        if (line.compare(0, prefix.size(), prefix) == 0)
            lines.push_back(line);
    }
    return lines;
}

} // namespace

TEST(RunMultiCore, MatchesTheHandLoopOverRunLayer)
{
    const SimConfig cfg = starvedConfig();
    const Topology topo = mixedTopology();
    const core::RunResult run = core::runMultiCore(cfg, 2, 2, topo);

    MultiCoreTraceSimulator sim(multiCoreTraceConfig(cfg, 2, 2));
    obs::StatsRegistry reg;
    Cycle cycles = 0;
    std::uint64_t reads = 0, writes = 0, conflicts = 0;
    for (std::size_t i = 0; i < topo.layers.size(); ++i) {
        const MultiCoreTraceResult res = sim.runLayer(topo.layers[i]);
        res.registerStats(reg, "mc.l" + std::to_string(i));
        const std::uint64_t reps = topo.layers[i].repetitions;
        cycles += res.makespan * reps;
        reads += res.dramReadWords * reps;
        writes += res.dramWriteWords * reps;
        conflicts += res.arb.arbConflicts * reps;
    }
    const auto want = linesWithPrefix(reg, "mc.l");
    ASSERT_FALSE(want.empty());
    EXPECT_EQ(linesWithPrefix(run.stats, "mc.l"), want);

    EXPECT_GT(conflicts, 0u);
    EXPECT_EQ(run.totalCycles, cycles);
    EXPECT_EQ(run.dramReadWords, reads);
    EXPECT_EQ(run.dramWriteWords, writes);
    EXPECT_EQ(run.stats.scalarValue("mc.arbConflicts"),
              static_cast<double>(conflicts));
    EXPECT_EQ(run.stats.scalarValue("sim.totalCycles"),
              static_cast<double>(cycles));
    ASSERT_EQ(run.layers.size(), topo.layers.size());
    EXPECT_EQ(run.layers[2].repetitions, 3u);
    for (const core::LayerResult& layer : run.layers) {
        EXPECT_EQ(layer.cpi.total(), layer.totalCycles) << layer.name;
        EXPECT_GT(layer.utilization, 0.0) << layer.name;
        EXPECT_LE(layer.utilization, 1.0) << layer.name;
    }
    EXPECT_EQ(run.cpiTotals.total(), run.totalCycles);
    EXPECT_FALSE(run.audited);
    EXPECT_EQ(run.profile.layersProfiled, topo.layers.size());
}

TEST(RunMultiCore, AuditsEachCoreAndTheRunTotals)
{
    SimConfig cfg = starvedConfig();
    cfg.audit = true;
    const Topology topo = mixedTopology();
    const core::RunResult run = core::runMultiCore(cfg, 2, 2, topo);
    ASSERT_TRUE(run.audited);
    EXPECT_TRUE(run.audit.clean());
    EXPECT_EQ(run.stats.scalarValue("sim.audit.checks"),
              static_cast<double>(run.audit.checks()));

    // The per-core checks alone, as a caller of runLayer would audit.
    const MultiCoreTraceConfig mc = multiCoreTraceConfig(cfg, 2, 2);
    MultiCoreTraceSimulator sim(mc);
    check::InvariantAuditor per_core;
    for (std::size_t i = 0; i < topo.layers.size(); ++i) {
        const MultiCoreTraceResult res = sim.runLayer(topo.layers[i]);
        const std::string scope = "mc.l" + std::to_string(i);
        per_core.auditArbiter(res, mc.useL2, scope);
        for (std::size_t c = 0; c < res.perCore.size(); ++c) {
            const std::string core = scope + ".core" + std::to_string(c);
            per_core.auditStallAccounting(res.perCore[c], core);
            per_core.auditCpiStack(res.perCore[c].cpi,
                                   res.perCore[c].totalCycles, core);
        }
    }
    EXPECT_GT(run.audit.checks(), per_core.report().checks());
}

TEST(RunMultiCore, RepeatedLayersMatchAFreshSimulator)
{
    // A layer whose GEMM ran before is answered from the stored
    // result; it must equal a fresh simulator's, under every dataflow
    // with the shared L2 on and off. conv2 lowers to gemm_c's GEMM; the
    // other near-repeat differs from `gemm` in K alone.
    Topology topo;
    topo.name = "repeated";
    topo.layers = {LayerSpec::gemm("gemm", 64, 40, 48),
                   LayerSpec::conv("conv", 10, 10, 3, 3, 8, 24, 1),
                   LayerSpec::gemm("gemm2", 64, 40, 48, 3),
                   LayerSpec::gemm("gemm_c", 64, 24, 72),
                   LayerSpec::gemm("gemm_k", 64, 40, 56),
                   LayerSpec::gemm("gemm3", 64, 40, 48)};
    constexpr std::uint64_t kRepeats = 3;
    SimConfig cfg = starvedConfig();
    for (const Dataflow df :
         {Dataflow::OutputStationary, Dataflow::WeightStationary,
          Dataflow::InputStationary}) {
        cfg.dataflow = df;
        for (const bool l2 : {true, false}) {
            const std::string what = toString(df) + (l2 ? " l2" : " no l2");
            MultiCoreTraceConfig mc = multiCoreTraceConfig(cfg, 2, 2);
            mc.useL2 = l2;
            MultiCoreTraceSimulator sim(mc);
            obs::StatsRegistry got, want;
            for (std::size_t i = 0; i < topo.layers.size(); ++i) {
                const std::string scope = "mc.l" + std::to_string(i);
                sim.runLayer(topo.layers[i]).registerStats(got, scope);
                MultiCoreTraceSimulator fresh(mc);
                fresh.runLayer(topo.layers[i]).registerStats(want, scope);
            }
            EXPECT_EQ(sim.layersReused(), kRepeats) << what;
            EXPECT_EQ(linesWithPrefix(got, "mc.l"),
                      linesWithPrefix(want, "mc.l")) << what;
            if (l2) {
                const core::RunResult run
                    = core::runMultiCore(cfg, 2, 2, topo);
                EXPECT_EQ(run.profile.layersReused, kRepeats) << what;
                EXPECT_EQ(linesWithPrefix(run.stats, "mc.l"),
                          linesWithPrefix(want, "mc.l")) << what;
            }
        }
    }
}
