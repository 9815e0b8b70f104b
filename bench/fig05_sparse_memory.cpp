/**
 * @file
 * Reproduces Fig. 5: total compute cycles (including memory stalls) vs
 * on-chip memory size for ResNet-18 under 1:4, 2:4 and 4:4 sparsity
 * (weight-stationary, as in the paper). Also reproduces the §IX-B
 * "Sparsity" finding: the on-chip memory a latency-constrained design
 * needs shrinks dramatically with a sparse core.
 */

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/workloads.hpp"
#include "core/simulator.hpp"

using namespace scalesim;

namespace
{

Cycle
totalCycles(std::uint64_t sram_kb, std::uint32_t n, std::uint32_t m)
{
    SimConfig cfg;
    cfg.arrayRows = 32;
    cfg.arrayCols = 32;
    cfg.dataflow = Dataflow::WeightStationary;
    cfg.mode = SimMode::Analytical;
    cfg.memory.ifmapSramKb = sram_kb / 2;
    cfg.memory.filterSramKb = sram_kb / 4;
    cfg.memory.ofmapSramKb = sram_kb / 4;
    cfg.memory.bandwidthWordsPerCycle = 16.0;
    cfg.sparsity.enabled = n != 0;
    core::Simulator sim(cfg);
    Topology topo = workloads::resnet18();
    if (n != 0)
        topo = workloads::withUniformSparsity(std::move(topo), n, m);
    return sim.run(topo).totalCycles;
}

} // namespace

int
main(int argc, char** argv)
{
    benchutil::noArgs(argc, argv);
    setQuiet(true);
    std::printf("=== Fig. 5: total cycles (incl. stalls) vs on-chip "
                "memory, ResNet-18, WS ===\n");
    const std::uint64_t sizes_kb[] = {192, 384, 768, 1536, 3072, 6144};
    benchutil::Table table({12, 16, 16, 16});
    table.row({"SRAM", "cycles(1:4)", "cycles(2:4)", "cycles(4:4)"});
    table.rule();
    std::vector<std::vector<Cycle>> results;
    for (std::uint64_t kb : sizes_kb) {
        const Cycle c14 = totalCycles(kb, 1, 4);
        const Cycle c24 = totalCycles(kb, 2, 4);
        const Cycle c44 = totalCycles(kb, 4, 4);
        results.push_back({c14, c24, c44});
        table.row({format("%llu kB", static_cast<unsigned long long>(kb)),
                   benchutil::num(c14), benchutil::num(c24),
                   benchutil::num(c44)});
    }
    table.rule();

    // Shape checks the paper reports: more SRAM -> fewer cycles; more
    // sparsity -> fewer cycles at fixed SRAM.
    bool sram_monotone = true;
    bool sparsity_ordered = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
        if (i > 0 && results[i][2] > results[i - 1][2])
            sram_monotone = false;
        if (!(results[i][0] <= results[i][1]
              && results[i][1] <= results[i][2]))
            sparsity_ordered = false;
    }
    std::printf("more SRAM never slower (4:4 column): %s\n",
                sram_monotone ? "yes" : "NO");
    std::printf("sparser is never slower at fixed SRAM: %s\n",
                sparsity_ordered ? "yes" : "NO");

    // §IX-B Sparsity: on-chip memory needed to meet a latency budget.
    const Cycle budget = results.back()[2] * 5 / 4; // 25% over best
    auto needed = [&](std::size_t col) -> std::uint64_t {
        for (std::size_t i = 0; i < results.size(); ++i) {
            if (results[i][col] <= budget)
                return sizes_kb[i];
        }
        return sizes_kb[sizeof(sizes_kb) / sizeof(sizes_kb[0]) - 1];
    };
    std::printf("SecIXb: latency budget %llu cycles -> dense(4:4) "
                "needs %llu kB, 2:4 needs %llu kB, 1:4 needs %llu kB "
                "(paper: 3 MB dense vs 768 kB with 2:4)\n",
                static_cast<unsigned long long>(budget),
                static_cast<unsigned long long>(needed(2)),
                static_cast<unsigned long long>(needed(1)),
                static_cast<unsigned long long>(needed(0)));
    return 0;
}
