/**
 * @file
 * Reproduces Table VI: latency and energy of the two stationary
 * dataflows on iso-compute designs — one 128x128 core vs 16 cores of
 * 32x32 — for ViT-base, and the EdP conclusion that multi-core
 * narrows the latency gap enough for the losing dataflow to win EdP.
 *
 * Label note (see DESIGN.md): the paper's Table II swaps the IS/WS
 * labels relative to SCALE-Sim's conventional operand semantics; the
 * paper's "ws" corresponds to our conventional IS and vice versa. We
 * report the conventional labels and print the paper-label ratio.
 */

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/workloads.hpp"
#include "core/simulator.hpp"
#include "multicore/system.hpp"

using namespace scalesim;

namespace
{

struct Design
{
    Cycle latency = 0;
    double energyMj = 0.0;
    double edp() const
    {
        return static_cast<double>(latency) * energyMj;
    }
};

/** Single big core: plain simulator run. */
Design
singleCore(const Topology& topo, Dataflow df)
{
    SimConfig cfg;
    cfg.arrayRows = cfg.arrayCols = 128;
    cfg.dataflow = df;
    cfg.mode = SimMode::Analytical;
    cfg.energy.enabled = true;
    cfg.memory.bandwidthWordsPerCycle = 100.0;
    core::Simulator sim(cfg);
    const auto run = sim.run(topo);
    return {run.totalCycles, run.totalEnergy.totalMj()};
}

/**
 * 16 x 32x32 cores, 4x4 spatial partitioning: latency from the
 * multi-core simulator; energy from per-core partition runs x 16.
 */
Design
multiCore(const Topology& topo, Dataflow df)
{
    multicore::TensorCoreConfig core;
    core.arrayRows = core.arrayCols = 32;
    const auto mc_cfg = multicore::MultiCoreConfig::homogeneous(
        core, 4, 4, multicore::PartitionScheme::Spatial);
    multicore::MultiCoreSimulator mc(mc_cfg);

    SimConfig cfg;
    cfg.arrayRows = cfg.arrayCols = 32;
    cfg.dataflow = df;
    cfg.mode = SimMode::Analytical;
    cfg.energy.enabled = true;
    cfg.memory.bandwidthWordsPerCycle = 100.0;
    core::Simulator per_core(cfg);

    Design design;
    for (const auto& layer : topo.layers) {
        const auto result = mc.runLayer(layer, df);
        design.latency += result.makespan * layer.repetitions;
        // Per-core energy: partition the mapped Sr/Sc dims 4x4 and run
        // the per-core share; scale by 16 cores.
        const GemmDims gemm = layer.toGemm();
        const MappedDims mapped = systolic::mapGemmConventional(gemm,
                                                                df);
        GemmDims share = gemm;
        switch (df) {
          case Dataflow::WeightStationary:
            share.k = ceilDiv(mapped.sr, 4);
            share.n = ceilDiv(mapped.sc, 4);
            break;
          case Dataflow::InputStationary:
            share.k = ceilDiv(mapped.sr, 4);
            share.m = ceilDiv(mapped.sc, 4);
            break;
          case Dataflow::OutputStationary:
            share.m = ceilDiv(mapped.sr, 4);
            share.n = ceilDiv(mapped.sc, 4);
            break;
        }
        LayerSpec share_layer = LayerSpec::gemm(
            layer.name, share.m, share.n, share.k);
        const auto lr = per_core.runLayer(share_layer);
        design.energyMj += lr.energyBreakdown.totalMj() * 16.0
            * layer.repetitions;
    }
    return design;
}

} // namespace

int
main(int argc, char** argv)
{
    benchutil::noArgs(argc, argv);
    setQuiet(true);
    std::printf("=== Table VI: single 128x128 vs 16 x 32x32, ViT-base "
                "===\n");
    const Topology topo = workloads::vit(workloads::VitVariant::Base);

    const Design ws1 = singleCore(topo, Dataflow::WeightStationary);
    const Design is1 = singleCore(topo, Dataflow::InputStationary);
    const Design ws16 = multiCore(topo, Dataflow::WeightStationary);
    const Design is16 = multiCore(topo, Dataflow::InputStationary);

    benchutil::Table table({26, 14, 12, 14});
    table.row({"design/dataflow", "latency", "energy mJ", "EdP"});
    table.rule();
    auto row = [&](const char* label, const Design& d) {
        table.row({label, benchutil::num(d.latency),
                   benchutil::fmt("%.2f", d.energyMj),
                   benchutil::fmt("%.0f", d.edp())});
    };
    row("1 x 128x128, ws(conv)", ws1);
    row("1 x 128x128, is(conv)", is1);
    row("16 x 32x32, ws(conv)", ws16);
    row("16 x 32x32, is(conv)", is16);
    table.rule();

    // Paper-label ratio ("ws/is" under the paper's Table II labels
    // corresponds to conventional ws/is inverted; report both).
    const double single_ratio = static_cast<double>(ws1.latency)
        / static_cast<double>(is1.latency);
    const double multi_ratio = static_cast<double>(ws16.latency)
        / static_cast<double>(is16.latency);
    std::printf("latency ratio ws/is (conventional labels): "
                "single-core %.2f, multi-core %.2f (paper magnitudes: "
                "1.87 and 1.14 — the winning dataflow's lead shrinks "
                "with multi-core)\n",
                single_ratio, multi_ratio);
    const double gap_single = std::max(single_ratio,
                                       1.0 / single_ratio);
    const double gap_multi = std::max(multi_ratio, 1.0 / multi_ratio);
    std::printf("multi-core narrows the latency gap: %s (%.2fx -> "
                "%.2fx)\n",
                gap_multi < gap_single ? "yes" : "NO", gap_single,
                gap_multi);
    const double edp_ratio = ws16.edp() / is16.edp();
    std::printf("multi-core EdP ratio ws/is: %.2f (paper: the "
                "latency-losing dataflow wins EdP by 1.31x in "
                "multi-core; under our conventional mapping WS wins "
                "both metrics for ViT-base, so the gap narrows but "
                "does not flip — see EXPERIMENTS.md)\n", edp_ratio);
    return 0;
}
