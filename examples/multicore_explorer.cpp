/**
 * @file
 * Multi-core exploration: partition a large GEMM across a 4x4 grid of
 * tensor cores under the three partitioning schemes (§III-A), show the
 * shared-L2 deduplication savings (§III-B), add heterogeneous cores
 * with SIMD tails (§III-C), and demonstrate non-uniform NoP-aware
 * workload partitioning (§III-D).
 */

#include <cstdio>

#include "common/log.hpp"
#include "multicore/system.hpp"
#include "multicore/trace_sim.hpp"

using namespace scalesim;
using namespace scalesim::multicore;

int
main()
{
    setQuiet(true);
    const GemmDims gemm{4096, 4096, 1024};
    std::printf("GEMM %llux%llux%llu on 16 cores of 32x32\n\n",
                static_cast<unsigned long long>(gemm.m), static_cast<unsigned long long>(gemm.n),
                static_cast<unsigned long long>(gemm.k));

    // 1. Partitioning schemes and the (Pr, Pc) search.
    std::printf("%-20s %6s %14s %12s %12s\n", "scheme", "PrxPc",
                "cycles", "L1 MB", "L2 MB");
    for (auto scheme : {PartitionScheme::Spatial,
                        PartitionScheme::SpatioTemporal1,
                        PartitionScheme::SpatioTemporal2}) {
        const auto best = bestByCycles(enumeratePartitions(
            gemm, Dataflow::OutputStationary, 32, 32, 16, scheme));
        std::printf("%-20s %2llux%-3llu %14llu %12.1f %12.1f\n",
                    toString(scheme).c_str(),
                    static_cast<unsigned long long>(best.pr),
                    static_cast<unsigned long long>(best.pc),
                    static_cast<unsigned long long>(best.cycles),
                    best.footprintWords / 1048576.0,
                    best.l2FootprintWords / 1048576.0);
    }

    // 2. Homogeneous grid with a softmax vector tail.
    TensorCoreConfig core;
    core.arrayRows = core.arrayCols = 32;
    core.simd.lanes = 32;
    MultiCoreSimulator homogeneous(
        MultiCoreConfig::homogeneous(core, 4, 4));
    const auto homo = homogeneous.runGemm(
        gemm, Dataflow::OutputStationary, VectorOp::Softmax);
    std::printf("\nhomogeneous 4x4 + softmax tail: makespan %llu, "
                "imbalance %.3f, L2 saves %.1f MB\n",
                static_cast<unsigned long long>(homo.makespan), homo.imbalance,
                homo.dedupSavedWords() / 1048576.0);

    // 3. Heterogeneous cores: one row of 64x64, three rows of 32x32.
    MultiCoreConfig hetero = MultiCoreConfig::homogeneous(core, 4, 4);
    for (int j = 0; j < 4; ++j) {
        hetero.cores[static_cast<std::size_t>(j)].arrayRows = 64;
        hetero.cores[static_cast<std::size_t>(j)].arrayCols = 64;
    }
    MultiCoreSimulator hetero_sim(hetero);
    const auto het = hetero_sim.runGemm(gemm,
                                        Dataflow::OutputStationary);
    std::printf("heterogeneous (row of 64x64): makespan %llu, "
                "imbalance %.3f\n",
                static_cast<unsigned long long>(het.makespan), het.imbalance);

    // 4. Non-uniform partitioning on a Simba-like distance profile.
    MultiCoreConfig skewed = MultiCoreConfig::homogeneous(core, 4, 4);
    skewed.nop.latencyPerHop = 40;
    skewed.nop.wordsPerCycle = 8.0;
    skewed.nop.hops = {1, 1, 1, 1, 2, 2, 2, 2,
                       4, 4, 4, 4, 8, 8, 8, 8};
    MultiCoreSimulator uniform_sim(skewed);
    const auto uniform = uniform_sim.runGemm(
        gemm, Dataflow::OutputStationary);
    skewed.nonUniform = true;
    MultiCoreSimulator nonuniform_sim(skewed);
    const auto nonuniform = nonuniform_sim.runGemm(
        gemm, Dataflow::OutputStationary);
    std::printf("\nNoP-skewed grid: uniform makespan %llu -> "
                "non-uniform %llu (%.1f%% better)\n",
                static_cast<unsigned long long>(uniform.makespan),
                static_cast<unsigned long long>(nonuniform.makespan),
                100.0
                    * (1.0
                       - static_cast<double>(nonuniform.makespan)
                           / static_cast<double>(uniform.makespan)));
    std::printf("row shares (near -> far): ");
    for (std::uint64_t i = 0; i < 4; ++i) {
        std::printf("%llu ",
                    static_cast<unsigned long long>(
                        nonuniform.perCore[i * 4].rowShare));
    }
    std::printf("\n");

    // 5. Trace-level run through the shared L2 (§III-B): measure the
    //    DRAM traffic the deduplication actually removes.
    MultiCoreTraceConfig trace_cfg;
    trace_cfg.pr = trace_cfg.pc = 4;
    trace_cfg.arrayRows = trace_cfg.arrayCols = 32;
    trace_cfg.dataflow = Dataflow::OutputStationary;
    trace_cfg.l1.ifmapWords = 32 * 1024;
    trace_cfg.l1.filterWords = 32 * 1024;
    MultiCoreTraceConfig no_l2_cfg = trace_cfg;
    no_l2_cfg.useL2 = false;
    MultiCoreTraceSimulator with_l2(trace_cfg);
    MultiCoreTraceSimulator without_l2(no_l2_cfg);
    const LayerSpec big = LayerSpec::gemm("gemm", 4096, 4096, 1024);
    const auto l2_run = with_l2.runLayer(big);
    const auto no_l2_run = without_l2.runLayer(big);
    std::printf("\ntrace-level shared L2: DRAM reads %llu -> %llu "
                "(%.0f%% saved), L2 hit rate %.2f, makespan %llu -> "
                "%llu\n",
                static_cast<unsigned long long>(no_l2_run.dramReadWords),
                static_cast<unsigned long long>(l2_run.dramReadWords),
                100.0 * (1.0 - static_cast<double>(
                                   l2_run.dramReadWords)
                             / no_l2_run.dramReadWords),
                l2_run.l2.hitRate(),
                static_cast<unsigned long long>(no_l2_run.makespan),
                static_cast<unsigned long long>(l2_run.makespan));

    // 6. Contention on the shared timeline: the same layer on a
    //    bandwidth-starved bus versus an ample one.
    MultiCoreTraceConfig cont_cfg;
    cont_cfg.pr = cont_cfg.pc = 2;
    cont_cfg.arrayRows = cont_cfg.arrayCols = 16;
    cont_cfg.dataflow = Dataflow::OutputStationary;
    cont_cfg.useL2 = false;
    cont_cfg.dramWordsPerCycle = 64.0;
    MultiCoreTraceSimulator ample_sim(cont_cfg);
    cont_cfg.dramWordsPerCycle = 4.0;
    MultiCoreTraceSimulator starved_sim(cont_cfg);
    const LayerSpec small = LayerSpec::gemm("gemm", 96, 64, 48);
    const auto ample_run = ample_sim.runLayer(small);
    const auto starved_run = starved_sim.runLayer(small);
    std::uint64_t queue_delay = 0;
    for (const auto& port : starved_run.ports)
        queue_delay += port.waitCycles;
    std::printf("contention: 4 words/cycle bus %llu vs 64 words/cycle "
                "%llu cycles (%+.1f%%), %llu arb conflicts, "
                "aggregate port queueing delay %llu cycles\n",
                static_cast<unsigned long long>(starved_run.makespan),
                static_cast<unsigned long long>(ample_run.makespan),
                100.0 * (static_cast<double>(starved_run.makespan)
                             / ample_run.makespan
                         - 1.0),
                static_cast<unsigned long long>(
                    starved_run.arb.arbConflicts),
                static_cast<unsigned long long>(queue_delay));
    return 0;
}
