/**
 * @file
 * Reproduces Table V: latency (cycles/layer), energy (mJ) and EdP
 * (cycles x mJ / layer) for 32x32, 64x64 and 128x128 arrays on
 * ResNet-50, R-CNN and ViT-base, plus the paper's headline: the big
 * array wins latency by ~6.5x on ViT-base while the small array is
 * ~2.9x more energy-efficient, and 64x64 wins EdP for ViT-base.
 */

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/workloads.hpp"
#include "core/simulator.hpp"

using namespace scalesim;

namespace
{

struct Cell
{
    double cyclesPerLayer = 0.0;
    double energyMj = 0.0;
    double edp = 0.0;
};

Cell
evaluate(const Topology& topo, std::uint32_t array)
{
    SimConfig cfg;
    cfg.arrayRows = array;
    cfg.arrayCols = array;
    cfg.dataflow = Dataflow::WeightStationary;
    cfg.mode = SimMode::Analytical;
    cfg.energy.enabled = true;
    cfg.memory.bandwidthWordsPerCycle = 100.0;
    // TPU-like on-chip buffers (the paper's energy studies assume the
    // working set is on-chip; tiny SRAMs would make DRAM spill energy
    // dominate instead of the dataflow's action counts).
    cfg.memory.ifmapSramKb = 6144;
    cfg.memory.filterSramKb = 6144;
    cfg.memory.ofmapSramKb = 2048;
    core::Simulator sim(cfg);
    const core::RunResult run = sim.run(topo);
    std::uint64_t instances = 0;
    for (const auto& layer : run.layers)
        instances += layer.repetitions;
    Cell cell;
    cell.cyclesPerLayer = static_cast<double>(run.totalCycles)
        / static_cast<double>(instances);
    cell.energyMj = run.totalEnergy.onChipMj();
    cell.edp = cell.cyclesPerLayer * cell.energyMj;
    return cell;
}

} // namespace

int
main(int argc, char** argv)
{
    benchutil::noArgs(argc, argv);
    setQuiet(true);
    std::printf("=== Table V: latency / energy / EdP for 32^2, 64^2, "
                "128^2 arrays ===\n");
    const char* names[] = {"resnet50", "rcnn", "vit_base"};
    const std::uint32_t arrays[] = {32, 64, 128};

    Cell cells[3][3];
    for (int w = 0; w < 3; ++w) {
        const Topology topo = workloads::byName(names[w]);
        for (int a = 0; a < 3; ++a)
            cells[w][a] = evaluate(topo, arrays[a]);
    }

    for (int w = 0; w < 3; ++w) {
        std::printf("--- %s ---\n", names[w]);
        benchutil::Table table({24, 14, 14, 14});
        table.row({"metric", "32x32", "64x64", "128x128"});
        table.rule();
        table.row({"Latency (cycles/layer)",
                   benchutil::fmt("%.0f", cells[w][0].cyclesPerLayer),
                   benchutil::fmt("%.0f", cells[w][1].cyclesPerLayer),
                   benchutil::fmt("%.0f", cells[w][2].cyclesPerLayer)});
        table.row({"Energy (mJ)",
                   benchutil::fmt("%.2f", cells[w][0].energyMj),
                   benchutil::fmt("%.2f", cells[w][1].energyMj),
                   benchutil::fmt("%.2f", cells[w][2].energyMj)});
        table.row({"EdP (cycles x mJ/layer)",
                   benchutil::fmt("%.0f", cells[w][0].edp),
                   benchutil::fmt("%.0f", cells[w][1].edp),
                   benchutil::fmt("%.0f", cells[w][2].edp)});
        table.rule();
    }

    // Headline shape checks (ViT-base is row 2).
    const double speedup = cells[2][0].cyclesPerLayer
        / cells[2][2].cyclesPerLayer;
    const double efficiency = cells[2][2].energyMj
        / cells[2][0].energyMj;
    std::printf("ViT-base: 128^2 latency speedup over 32^2 = %.2fx "
                "(paper: 6.53x)\n", speedup);
    std::printf("ViT-base: 32^2 energy efficiency over 128^2 = %.2fx "
                "(paper: 2.86x)\n", efficiency);
    const char* edp_best = cells[2][1].edp <= cells[2][0].edp
            && cells[2][1].edp <= cells[2][2].edp
        ? "64x64" : (cells[2][0].edp <= cells[2][2].edp ? "32x32"
                                                        : "128x128");
    std::printf("ViT-base EdP winner: %s (paper: 64x64)\n", edp_best);
    return 0;
}
