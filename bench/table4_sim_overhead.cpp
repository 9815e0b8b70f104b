/**
 * @file
 * Reproduces Table IV: simulation-time overhead of each v3 feature
 * relative to the v2-equivalent baseline on a TPU-v2-like
 * configuration, for AlexNet, ResNet-18, ViT-L and ViT-S.
 *
 * Baseline = trace-driven demand generation + scratchpad/bandwidth
 * timing (what SCALE-Sim v2 does). Features measured: multi-core
 * partition exploration, 2:4 and 1:4 sparsity, energy (Accelergy
 * substitute), detailed DRAM (Ramulator substitute), and layout.
 * Expected shape: sparsity < 1x (compressed runs are faster), every
 * other feature >= ~1x. Which feature costs most depends on how each
 * consumer handles replayed folds, not on the paper's ordering.
 *
 * Times come from the simulator's own SimProfiler instrumentation
 * (per-phase wall-clock threaded through Simulator::runLayer), not
 * from external stopwatches. Pass `--jobs N` to spread the
 * (workload x feature) config points over N worker threads — each
 * point owns its Simulator, so the measured ratios are unchanged
 * while the bench's wall-clock shrinks.
 */

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/profiler.hpp"
#include "common/workloads.hpp"
#include "core/simulator.hpp"
#include "multicore/system.hpp"
#include "systolic/demand.hpp"

using namespace scalesim;

namespace
{

SimConfig
tpuConfig()
{
    SimConfig cfg = SimConfig::tpuV2Like();
    cfg.mode = SimMode::Trace;
    return cfg;
}

/** v2-equivalent baseline: demand generation + timing, no features. */
SimProfile
baselineProfile(const Topology& topo)
{
    SimProfiler profiler;
    const SimConfig cfg = tpuConfig();
    // The plain simulator skips the demand pass without consumers;
    // drive it explicitly to mirror v2's trace generation.
    benchutil::Timer demand_timer;
    for (const auto& layer : topo.layers) {
        const GemmDims gemm = layer.toGemm();
        const systolic::OperandMap operands(gemm, cfg.memory);
        systolic::DemandGenerator gen(gemm, cfg.dataflow, cfg.arrayRows,
                                      cfg.arrayCols, operands);
        systolic::CountingVisitor counter;
        gen.run(counter);
    }
    profiler.chargeExternal(SimPhase::DemandGen,
                            demand_timer.seconds());
    core::Simulator timing_sim(cfg);
    profiler.merge(timing_sim.run(topo).profile);
    return profiler.snapshot();
}

SimProfile
featureProfile(const Topology& topo, const char* feature)
{
    SimProfiler profiler;
    const std::string what(feature);
    if (what == "multicore") {
        benchutil::Timer search_timer;
        multicore::TensorCoreConfig core;
        core.arrayRows = core.arrayCols = 32;
        for (auto scheme : {multicore::PartitionScheme::Spatial,
                            multicore::PartitionScheme::SpatioTemporal1,
                            multicore::PartitionScheme::SpatioTemporal2
                           }) {
            auto cfg = multicore::MultiCoreConfig::homogeneous(
                core, 4, 4, scheme);
            multicore::MultiCoreSimulator sim(cfg);
            for (const auto& layer : topo.layers) {
                const GemmDims gemm = layer.toGemm();
                multicore::enumeratePartitions(gemm,
                                               Dataflow::
                                                   WeightStationary,
                                               32, 32, 16, scheme);
                sim.runGemm(gemm, Dataflow::WeightStationary);
            }
        }
        profiler.chargeOther(search_timer.seconds());
        // Plus the baseline timing pass the run still performs.
        core::Simulator sim(tpuConfig());
        profiler.merge(sim.run(topo).profile);
        return profiler.snapshot();
    }
    SimConfig cfg = tpuConfig();
    if (what == "sparse24" || what == "sparse14") {
        cfg.sparsity.enabled = true;
        Topology annotated = workloads::withUniformSparsity(
            topo, what == "sparse24" ? 2 : 1, 4);
        benchutil::Timer demand_timer;
        for (const auto& layer : annotated.layers) {
            sparse::SparseLayerModel model(layer, cfg.sparsity);
            const systolic::OperandMap operands(layer.toGemm(),
                                                cfg.memory);
            systolic::DemandGenerator gen(
                layer.toGemm(), cfg.dataflow, cfg.arrayRows,
                cfg.arrayCols, operands,
                model.active() ? &model.pattern() : nullptr);
            systolic::CountingVisitor counter;
            gen.run(counter);
        }
        profiler.chargeExternal(SimPhase::DemandGen,
                                demand_timer.seconds());
        core::Simulator sim(cfg);
        profiler.merge(sim.run(annotated).profile);
        return profiler.snapshot();
    }
    if (what == "energy") {
        cfg.energy.enabled = true;
    } else if (what == "dram") {
        cfg.dram.enabled = true;
        // DRAM runs atop the baseline's demand generation.
        benchutil::Timer demand_timer;
        for (const auto& layer : topo.layers) {
            const GemmDims gemm = layer.toGemm();
            const systolic::OperandMap operands(gemm, cfg.memory);
            systolic::DemandGenerator gen(gemm, cfg.dataflow,
                                          cfg.arrayRows, cfg.arrayCols,
                                          operands);
            systolic::CountingVisitor counter;
            gen.run(counter);
        }
        profiler.chargeExternal(SimPhase::DemandGen,
                                demand_timer.seconds());
    } else if (what == "layout") {
        cfg.layout.enabled = true;
        cfg.layout.banks = 32;
        cfg.layout.onChipBandwidth = 256;
    }
    core::Simulator sim(cfg);
    profiler.merge(sim.run(topo).profile);
    return profiler.snapshot();
}

} // namespace

int
main(int argc, char** argv)
{
    setQuiet(true);
    const unsigned jobs = benchutil::jobsFromArgs(argc, argv, 1);
    std::printf("=== Table IV: simulation-time overhead vs v2-style "
                "baseline (TPU-v2-like config, jobs=%u) ===\n",
                resolveJobs(jobs));
    const char* workload_names[] = {"alexnet", "resnet18", "vit_large",
                                    "vit_small"};
    const char* features[] = {"multicore", "sparse24", "sparse14",
                              "energy", "dram", "layout"};
    constexpr int kWorkloads = 4;
    constexpr int kFeatures = 6;

    // One config point per (workload, baseline-or-feature) pair; each
    // point measures itself through SimProfiler and stores its profile
    // by index, so any --jobs value prints the same table rows.
    constexpr int kPerWorkload = 1 + kFeatures;
    benchutil::Timer wall;
    std::vector<SimProfile> profiles(
        static_cast<std::size_t>(kWorkloads) * kPerWorkload);
    benchutil::forEachPoint(profiles.size(), jobs,
                            [&](std::uint64_t i) {
        const int w = static_cast<int>(i) / kPerWorkload;
        const int f = static_cast<int>(i) % kPerWorkload;
        const Topology topo = workloads::byName(workload_names[w]);
        profiles[i] = f == 0 ? baselineProfile(topo)
                             : featureProfile(topo, features[f - 1]);
    });
    const double wall_seconds = wall.seconds();

    benchutil::Table table({10, 11, 13, 13, 11, 11, 8});
    table.row({"Workload", "Multi-core", "Sparse 2:4", "Sparse 1:4",
               "Energy", "DRAM", "Layout"});
    table.rule();
    double mean[kFeatures] = {};
    SimProfile aggregate;
    for (int w = 0; w < kWorkloads; ++w) {
        const SimProfile& base = profiles[
            static_cast<std::size_t>(w) * kPerWorkload];
        std::vector<std::string> row = {workload_names[w]};
        for (int f = 0; f < kFeatures; ++f) {
            const SimProfile& feat = profiles[
                static_cast<std::size_t>(w) * kPerWorkload + 1 + f];
            const double overhead = feat.totalSeconds
                / std::max(base.totalSeconds, 1e-9);
            mean[f] += overhead;
            row.push_back(benchutil::fmt("%.2fx", overhead));
            aggregate.merge(feat);
        }
        aggregate.merge(base);
        table.row(row);
    }
    std::vector<std::string> mean_row = {"Mean"};
    for (int f = 0; f < kFeatures; ++f)
        mean_row.push_back(benchutil::fmt("%.2fx", mean[f] / 4.0));
    table.rule();
    table.row(mean_row);
    std::printf("(paper means: multi-core 2.29x, 2:4 0.42x, 1:4 "
                "0.29x, Accelergy 1.19x, Ramulator 2.13x, Layout "
                "16.03x; %s)\n",
                "shape target: sparsity < 1x, other features >= 1x");

    std::printf("\nself-profiled phase totals across all %zu points "
                "(SimProfiler):\n", profiles.size());
    for (unsigned p = 0; p < kNumSimPhases; ++p) {
        const auto phase = static_cast<SimPhase>(p);
        std::printf("  %-12s %10.3f s\n", toString(phase),
                    aggregate.seconds(phase));
    }
    std::printf("  %-12s %10.3f s\n", "other", aggregate.otherSeconds());
    std::printf("  %-12s %10.3f s  (sum of per-point simulate time)\n",
                "total", aggregate.totalSeconds);
    std::printf("  %-12s %10llu KiB (process peak RSS)\n", "peakRss",
                static_cast<unsigned long long>(aggregate.peakRssKb));
    std::printf("bench wall-clock: %.3f s at jobs=%u\n", wall_seconds,
                resolveJobs(jobs));
    return 0;
}
