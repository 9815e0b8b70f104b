/**
 * @file
 * Ablation: inference batch size. Batching grows the streamed (M)
 * dimension, amortizing stationary-operand loads and array fill/drain
 * across more useful work — the classic reason weight-stationary
 * accelerators batch. Reports cycles/image and energy/image across
 * batch sizes and dataflows for ViT-base.
 */

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/workloads.hpp"
#include "core/simulator.hpp"

using namespace scalesim;

namespace
{

struct PerImage
{
    double cycles;
    double energyMj;
};

PerImage
evaluate(Dataflow df, std::uint64_t batch)
{
    SimConfig cfg;
    cfg.arrayRows = cfg.arrayCols = 64;
    cfg.dataflow = df;
    cfg.mode = SimMode::Analytical;
    cfg.energy.enabled = true;
    cfg.memory.ifmapSramKb = 2048;
    cfg.memory.filterSramKb = 2048;
    cfg.memory.ofmapSramKb = 1024;
    cfg.memory.bandwidthWordsPerCycle = 64.0;
    core::Simulator sim(cfg);
    const auto run = sim.run(workloads::withBatch(
        workloads::vit(workloads::VitVariant::Base), batch));
    return {static_cast<double>(run.totalCycles) / batch,
            run.totalEnergy.onChipMj() / batch};
}

} // namespace

int
main(int argc, char** argv)
{
    benchutil::noArgs(argc, argv);
    setQuiet(true);
    std::printf("=== Ablation: batch size vs per-image cost, "
                "ViT-base, 64x64 ===\n");
    benchutil::Table table({6, 16, 14, 16, 14});
    table.row({"batch", "ws cyc/img", "ws mJ/img", "os cyc/img",
               "os mJ/img"});
    table.rule();
    double ws_first = 0.0;
    double ws_last = 0.0;
    for (std::uint64_t batch : {1ull, 2ull, 4ull, 8ull}) {
        const PerImage ws = evaluate(Dataflow::WeightStationary,
                                     batch);
        const PerImage os = evaluate(Dataflow::OutputStationary,
                                     batch);
        if (batch == 1)
            ws_first = ws.cycles;
        ws_last = ws.cycles;
        table.row({benchutil::num(batch),
                   benchutil::fmt("%.0f", ws.cycles),
                   benchutil::fmt("%.2f", ws.energyMj),
                   benchutil::fmt("%.0f", os.cycles),
                   benchutil::fmt("%.2f", os.energyMj)});
    }
    table.rule();
    std::printf("WS per-image cycles shrink %.1f%% from batch 1 to 8 "
                "(weight loads and fill/drain amortize): %s\n",
                100.0 * (1.0 - ws_last / ws_first),
                ws_last < ws_first ? "yes" : "NO");
    return 0;
}
