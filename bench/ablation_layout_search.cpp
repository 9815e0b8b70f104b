/**
 * @file
 * Ablation: per-layer data-layout search (§VI; FEATHER-style layout
 * flexibility). For each layer and dataflow, evaluate every layout
 * scheme (row-major / column-major / tiled) and report the best
 * scheme's slowdown vs always-row-major — quantifying how much a
 * layout-aware compiler recovers.
 */

#include <limits>

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/workloads.hpp"
#include "layout/layout.hpp"

using namespace scalesim;
using namespace scalesim::layout;
using namespace scalesim::systolic;

namespace
{

double
evaluate(const LayerSpec& layer, Dataflow df, LayoutScheme scheme,
         const LayoutModelConfig& cfg)
{
    MemoryConfig mem;
    const OperandMap operands = OperandMap::forLayer(layer, mem);
    DemandGenerator gen(layer.toGemm(), df, 32, 32, operands);
    BankConflictEvaluator eval(
        cfg, OperandLayouts::forOperands(operands, cfg, scheme));
    gen.run(eval);
    return eval.slowdown();
}

const char*
schemeName(LayoutScheme s)
{
    switch (s) {
      case LayoutScheme::RowMajor: return "row";
      case LayoutScheme::ColMajor: return "col";
      case LayoutScheme::Tiled: return "tiled";
    }
    return "?";
}

} // namespace

int
main(int argc, char** argv)
{
    benchutil::noArgs(argc, argv);
    setQuiet(true);
    std::printf("=== Ablation: per-layer layout search vs fixed "
                "row-major (§VI) ===\n");
    LayoutModelConfig cfg;
    cfg.enabled = true;
    cfg.banks = 8;
    cfg.portsPerBank = 1;
    cfg.onChipBandwidth = 64;

    const Topology topo = workloads::resnet18Prefix(6);
    benchutil::Table table({10, 6, 12, 12, 12, 8});
    table.row({"layer", "df", "row-major", "best", "gain", "scheme"});
    table.rule();
    double total_gain = 0.0;
    int rows = 0;
    for (const auto& layer : topo.layers) {
        for (auto df : {Dataflow::OutputStationary,
                        Dataflow::WeightStationary,
                        Dataflow::InputStationary}) {
            const double rm = evaluate(layer, df,
                                       LayoutScheme::RowMajor, cfg);
            double best = std::numeric_limits<double>::max();
            LayoutScheme best_scheme = LayoutScheme::RowMajor;
            for (auto scheme : {LayoutScheme::RowMajor,
                                LayoutScheme::ColMajor,
                                LayoutScheme::Tiled}) {
                const double s = evaluate(layer, df, scheme, cfg);
                if (s < best) {
                    best = s;
                    best_scheme = scheme;
                }
            }
            const double gain = rm / best;
            total_gain += gain;
            ++rows;
            table.row({layer.name, toString(df),
                       benchutil::fmt("%.2fx", rm),
                       benchutil::fmt("%.2fx", best),
                       benchutil::fmt("%.2fx", gain),
                       schemeName(best_scheme)});
        }
    }
    table.rule();
    std::printf("mean slowdown recovered by layout search: %.2fx "
                "(>= 1 by construction; FEATHER motivates exactly "
                "this reconfigurability)\n",
                total_gain / rows);
    return 0;
}
