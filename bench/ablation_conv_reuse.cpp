/**
 * @file
 * Ablation: convolution ifmap addressing. SCALE-Sim v2 accounts conv
 * traffic over the im2col-expanded M x K operand (every window element
 * a distinct address); this reproduction defaults to real (H, W, C)
 * tensor addressing where overlapping windows reuse addresses. The
 * difference is large for stride-1 3x3 layers (up to ~9x less ifmap
 * traffic) and zero for 1x1 convolutions — quantified here per
 * ResNet-18 layer.
 */

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/workloads.hpp"
#include "core/simulator.hpp"

using namespace scalesim;

namespace
{

core::RunResult
run(const Topology& topo, bool im2col_reuse)
{
    SimConfig cfg;
    cfg.arrayRows = cfg.arrayCols = 32;
    cfg.dataflow = Dataflow::WeightStationary;
    cfg.mode = SimMode::Analytical;
    cfg.memory.bandwidthWordsPerCycle = 32.0;
    cfg.memory.ifmapSramKb = 128; // small, so refetches happen
    cfg.memory.im2colAddressing = im2col_reuse;
    core::Simulator sim(cfg);
    return sim.run(topo);
}

} // namespace

int
main(int argc, char** argv)
{
    benchutil::noArgs(argc, argv);
    setQuiet(true);
    std::printf("=== Ablation: window-reuse vs im2col-expanded conv "
                "traffic ===\n");
    const Topology topo = workloads::resnet18Prefix(12);
    const auto reuse = run(topo, true);
    const auto expanded = run(topo, false);

    benchutil::Table table({10, 8, 14, 14, 10});
    table.row({"layer", "filter", "rd(expanded)", "rd(reuse)",
               "ratio"});
    table.rule();
    bool one_by_one_equal = true;
    bool three_by_three_saves = true;
    for (std::size_t i = 0; i < topo.layers.size(); ++i) {
        const auto& layer = topo.layers[i];
        const std::uint64_t e = expanded.layers[i].timing.dramReadWords;
        const std::uint64_t r = reuse.layers[i].timing.dramReadWords;
        const double ratio = static_cast<double>(e)
            / std::max<std::uint64_t>(1, r);
        table.row({layer.name,
                   format("%llux%llu/%llu",
                          static_cast<unsigned long long>(layer.filterH),
                          static_cast<unsigned long long>(layer.filterW),
                          static_cast<unsigned long long>(layer.stride)),
                   benchutil::num(e), benchutil::num(r),
                   benchutil::fmt("%.2fx", ratio)});
        if (layer.type == LayerType::Conv) {
            if (layer.filterH == 1 && layer.filterW == 1
                && layer.stride == 1 && ratio > 1.05) {
                one_by_one_equal = false;
            }
            if (layer.filterH == 3 && layer.stride == 1
                && ratio < 1.25) {
                three_by_three_saves = false;
            }
        }
    }
    table.rule();
    std::printf("1x1/stride-1 convs identical under both models: %s\n",
                one_by_one_equal ? "yes" : "NO");
    std::printf("3x3/stride-1 convs save >1.25x traffic with window "
                "reuse: %s\n",
                three_by_three_saves ? "yes" : "NO");
    std::printf("whole-prefix totals: %llu -> %llu read words "
                "(%.2fx), %llu -> %llu cycles\n",
                static_cast<unsigned long long>(expanded.dramReadWords),
                static_cast<unsigned long long>(reuse.dramReadWords),
                static_cast<double>(expanded.dramReadWords)
                    / reuse.dramReadWords,
                static_cast<unsigned long long>(expanded.totalCycles),
                static_cast<unsigned long long>(reuse.totalCycles));
    return 0;
}
