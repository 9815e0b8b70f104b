/**
 * @file
 * Ablation: the shared L2 scratchpad (§III-B). Runs spatially
 * partitioned layers on a multi-core grid with and without the shared
 * L2 and reports the DRAM traffic the deduplication removes, the L2
 * hit rate, and the makespan effect, across grid sizes and dataflows.
 */

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/workloads.hpp"
#include "multicore/trace_sim.hpp"

using namespace scalesim;
using namespace scalesim::multicore;

int
main(int argc, char** argv)
{
    benchutil::noArgs(argc, argv);
    setQuiet(true);
    std::printf("=== Ablation: shared L2 vs private-L1-only (§III-B) "
                "===\n");
    const LayerSpec layers[] = {
        LayerSpec::gemm("mlp_fc1", 197, 3072, 768),
        LayerSpec::gemm("attn_qkv", 197, 2304, 768),
        LayerSpec::conv("conv3x3", 28, 28, 3, 3, 128, 256, 1),
    };
    benchutil::Table table({10, 6, 6, 14, 14, 10, 10});
    table.row({"layer", "grid", "df", "dram(no L2)", "dram(L2)",
               "saved", "L2 hit"});
    table.rule();
    bool l2_always_saves = true;
    for (const auto& layer : layers) {
        for (std::uint64_t grid : {2ull, 4ull}) {
            for (auto df : {Dataflow::OutputStationary,
                            Dataflow::WeightStationary}) {
                MultiCoreTraceConfig cfg;
                cfg.pr = cfg.pc = grid;
                cfg.arrayRows = cfg.arrayCols = 16;
                cfg.dataflow = df;
                cfg.l1.ifmapWords = 16 * 1024;
                cfg.l1.filterWords = 16 * 1024;
                MultiCoreTraceConfig no_l2 = cfg;
                no_l2.useL2 = false;
                MultiCoreTraceSimulator with(cfg);
                MultiCoreTraceSimulator without(no_l2);
                const auto w = with.runLayer(layer);
                const auto wo = without.runLayer(layer);
                const double saved = 1.0
                    - static_cast<double>(w.dramReadWords)
                        / std::max<std::uint64_t>(1, wo.dramReadWords);
                if (w.dramReadWords > wo.dramReadWords)
                    l2_always_saves = false;
                table.row({layer.name, format("%llux%llu",
                                              static_cast<unsigned long long>(grid),
                                              static_cast<unsigned long long>(grid)),
                           toString(df),
                           benchutil::num(wo.dramReadWords),
                           benchutil::num(w.dramReadWords),
                           benchutil::fmt("%.0f%%", 100.0 * saved),
                           benchutil::fmt("%.2f", w.l2.hitRate())});
            }
        }
    }
    table.rule();
    std::printf("shared L2 never increases DRAM read traffic: %s\n",
                l2_always_saves ? "yes" : "NO");
    return 0;
}
