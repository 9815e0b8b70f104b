/**
 * @file
 * Reproduces Fig. 12: slowdown of OS/WS/IS dataflows under realistic
 * multi-bank on-chip memory vs SCALE-Sim v2's ideal-bandwidth model,
 * across (on-chip bandwidth, bank count) pairs. Array 128x128,
 * workload ResNet-18 (representative layer subset for runtime; the
 * trend is identical on the full network).
 *
 * Expected shape: slowdown >= 1 everywhere and, at fixed bandwidth,
 * more banks -> lower slowdown (finer-grained access flexibility).
 */

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/workloads.hpp"
#include "layout/layout.hpp"

using namespace scalesim;
using namespace scalesim::layout;
using namespace scalesim::systolic;

namespace
{

struct BwBanks
{
    std::uint32_t bandwidth;
    std::uint32_t banks;
};

constexpr BwBanks kConfigs[] = {{128, 2}, {128, 8},  {128, 32},
                                {256, 8}, {256, 32}, {256, 128}};
constexpr int kNumConfigs = sizeof(kConfigs) / sizeof(kConfigs[0]);

/**
 * Average layer slowdown for one dataflow over a topology subset; one
 * demand pass per layer feeds all (bw, banks) evaluators.
 */
void
evaluateDataflow(const std::vector<LayerSpec>& layers, Dataflow df,
                 std::uint32_t array, double out[kNumConfigs])
{
    double sum[kNumConfigs] = {};
    for (const auto& layer : layers) {
        const GemmDims gemm = layer.toGemm();
        MemoryConfig mem;
        const OperandMap operands(gemm, mem);
        DemandGenerator gen(gemm, df, array, array, operands);
        std::vector<BankConflictEvaluator> evals;
        evals.reserve(kNumConfigs);
        std::vector<DemandVisitor*> sinks;
        for (const auto& c : kConfigs) {
            LayoutModelConfig cfg;
            cfg.enabled = true;
            cfg.banks = c.banks;
            cfg.portsPerBank = 1;
            cfg.onChipBandwidth = c.bandwidth;
            evals.emplace_back(cfg,
                               OperandLayouts::forGemm(
                                   gemm, cfg, LayoutScheme::RowMajor));
        }
        for (auto& e : evals)
            sinks.push_back(&e);
        TeeVisitor tee(std::move(sinks));
        gen.run(tee);
        for (int i = 0; i < kNumConfigs; ++i)
            sum[i] += evals[static_cast<std::size_t>(i)].slowdown();
    }
    for (int i = 0; i < kNumConfigs; ++i)
        out[i] = sum[i] / static_cast<double>(layers.size());
}

} // namespace

int
main(int argc, char** argv)
{
    benchutil::noArgs(argc, argv);
    setQuiet(true);
    std::printf("=== Fig. 12: layout slowdown vs (bandwidth, banks), "
                "128x128, ResNet-18 ===\n");
    const Topology full = workloads::resnet18();
    // Representative subset: one layer per stage plus the downsample
    // and FC shapes.
    std::vector<LayerSpec> layers = {
        full.layers[0], full.layers[1], full.layers[5], full.layers[7],
        full.layers[10], full.layers[15], full.layers[19],
        full.layers[20]};

    benchutil::Table table({10, 12, 12, 12, 12, 12, 12});
    std::vector<std::string> header = {"dataflow"};
    for (const auto& c : kConfigs)
        header.push_back(format("(%u,%u)", c.bandwidth, c.banks));
    table.row(header);
    table.rule();

    bool banks_help = true;
    for (auto df : {Dataflow::OutputStationary,
                    Dataflow::WeightStationary,
                    Dataflow::InputStationary}) {
        double slow[kNumConfigs];
        evaluateDataflow(layers, df, 128, slow);
        std::vector<std::string> row = {toString(df)};
        for (int i = 0; i < kNumConfigs; ++i)
            row.push_back(benchutil::fmt("%.2fx", slow[i]));
        table.row(row);
        // At fixed bandwidth, more banks must not hurt.
        if (slow[0] < slow[2] || slow[3] < slow[5])
            banks_help = false;
    }
    table.rule();
    std::printf("more banks at fixed bandwidth never increase "
                "slowdown: %s (paper: 'increased number of banks "
                "consistently improves performance')\n",
                banks_help ? "yes" : "NO");
    return 0;
}
