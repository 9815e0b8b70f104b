/**
 * @file
 * Reproduces the §IX-B "DRAM" finding: on six ResNet-18 layers,
 * weight-stationary wins on pure compute cycles (v2's metric, ~21%
 * fewer than output-stationary), but once DRAM stalls are modeled the
 * ordering flips and OS finishes ~30% sooner — the paper's argument
 * for detailed main-memory analysis. Small request queues amplify the
 * effect.
 */

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/workloads.hpp"
#include "core/simulator.hpp"

using namespace scalesim;

namespace
{

core::RunResult
run(const Topology& topo, Dataflow df, bool dram)
{
    SimConfig cfg;
    cfg.arrayRows = cfg.arrayCols = 128;
    cfg.dataflow = df;
    cfg.mode = SimMode::Analytical;
    cfg.memory.ifmapSramKb = 256;
    cfg.memory.filterSramKb = 256;
    cfg.memory.ofmapSramKb = 128;
    if (dram) {
        cfg.dram.enabled = true;
        cfg.dram.tech = "DDR4_2400";
        cfg.dram.channels = 1;
        cfg.dram.readQueueSize = 32;
        cfg.dram.writeQueueSize = 32;
    } else {
        cfg.memory.bandwidthWordsPerCycle = 1e9; // v2 "free" memory
    }
    core::Simulator sim(cfg);
    return sim.run(topo);
}

} // namespace

int
main(int argc, char** argv)
{
    benchutil::noArgs(argc, argv);
    setQuiet(true);
    std::printf("=== SecIX-B: WS vs OS with and without DRAM stalls, "
                "six ResNet-18 layers ===\n");
    const Topology topo = workloads::resnet18Prefix(6);

    const auto ws_ideal = run(topo, Dataflow::WeightStationary, false);
    const auto os_ideal = run(topo, Dataflow::OutputStationary, false);
    const auto ws_dram = run(topo, Dataflow::WeightStationary, true);
    const auto os_dram = run(topo, Dataflow::OutputStationary, true);

    benchutil::Table table({26, 16, 16});
    table.row({"metric", "ws", "os"});
    table.rule();
    table.row({"compute cycles (v2)",
               benchutil::num(ws_ideal.computeCycles),
               benchutil::num(os_ideal.computeCycles)});
    table.row({"total cycles w/ DRAM",
               benchutil::num(ws_dram.totalCycles),
               benchutil::num(os_dram.totalCycles)});
    table.row({"stall cycles w/ DRAM",
               benchutil::num(ws_dram.stallCycles),
               benchutil::num(os_dram.stallCycles)});
    table.row({"DRAM words (R+W)",
               benchutil::num(ws_dram.dramReadWords
                              + ws_dram.dramWriteWords),
               benchutil::num(os_dram.dramReadWords
                              + os_dram.dramWriteWords)});
    table.rule();

    const double compute_gain = 1.0
        - static_cast<double>(ws_ideal.computeCycles)
            / static_cast<double>(os_ideal.computeCycles);
    const double total_gain = 1.0
        - static_cast<double>(os_dram.totalCycles)
            / static_cast<double>(ws_dram.totalCycles);
    std::printf("WS compute-cycle reduction vs OS (no memory): %.1f%% "
                "(paper: 21%%)\n", 100.0 * compute_gain);
    std::printf("OS total-cycle reduction vs WS (with DRAM): %.1f%% "
                "(paper: 30.1%%)\n", 100.0 * total_gain);
    std::printf("ordering flips once DRAM stalls are modeled: %s\n",
                (ws_ideal.computeCycles < os_ideal.computeCycles
                 && os_dram.totalCycles < ws_dram.totalCycles)
                    ? "yes" : "NO");
    return 0;
}
