/**
 * @file
 * Reproduces Table IV: simulation-time overhead of each v3 feature
 * relative to the v2-equivalent baseline on a TPU-v2-like
 * configuration, for AlexNet, ResNet-18, ViT-L and ViT-S.
 *
 * Baseline = trace-driven demand generation + scratchpad/bandwidth
 * timing (what SCALE-Sim v2 does). Features measured: the
 * trace-level multi-core run on a 4x4 grid of 32x32 cores, 2:4 and
 * 1:4 sparsity, energy (Accelergy substitute), detailed DRAM
 * (Ramulator substitute), and layout.
 * Expected shape: sparsity < 1x (compressed runs are faster), every
 * other feature >= ~1x. Which feature costs most depends on how each
 * consumer handles replayed folds, not on the paper's ordering.
 *
 * Times come from the simulator's own SimProfiler instrumentation
 * (per-phase wall-clock threaded through Simulator::runLayer), not
 * from external stopwatches. The Mean row divides wall time; the
 * energy and layout runs overlap their demand pass with the timing
 * pass on a second thread (DESIGN.md "Run pipeline"), so the Mean CPU
 * row divides the CPU seconds of the simulating threads as well.
 * Pass `--jobs N` to spread the (workload x feature) config points
 * over N worker threads — each point owns its Simulator, so the
 * measured ratios are unchanged while the bench's wall-clock shrinks.
 */

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/profiler.hpp"
#include "common/workloads.hpp"
#include "core/simulator.hpp"
#include "systolic/demand.hpp"

using namespace scalesim;

namespace
{

/**
 * Charge v2's trace generation, a GEMM-addressed demand pass over every
 * layer (gathered when the layer's sparsity applies), to `profiler`.
 */
void
chargeDemandPass(SimProfiler& profiler, const Topology& topo,
                 const SimConfig& cfg)
{
    benchutil::Timer demand_timer;
    const double cpu_start = threadCpuSeconds();
    for (const auto& layer : topo.layers) {
        const sparse::SparseLayerModel model(layer, cfg.sparsity);
        const GemmDims gemm = layer.toGemm();
        const systolic::OperandMap operands(gemm, cfg.memory);
        systolic::DemandGenerator gen(
            gemm, cfg.dataflow, cfg.arrayRows, cfg.arrayCols, operands,
            model.active() ? &model.pattern() : nullptr);
        systolic::CountingVisitor counter;
        gen.run(counter);
    }
    profiler.chargeExternal(SimPhase::DemandGen,
                            demand_timer.seconds());
    profiler.chargeCpu(threadCpuSeconds() - cpu_start);
}

/**
 * One point of the table: the v2-equivalent baseline ("baseline":
 * demand generation + timing, no features) or one feature.
 */
SimProfile
pointProfile(Topology topo, const std::string& what)
{
    SimProfiler profiler;
    SimConfig cfg = SimConfig::tpuV2Like();
    cfg.mode = SimMode::Trace;
    if (what == "multicore") {
        // The trace-level run on a 4x4 grid of 32x32 cores.
        cfg.arrayRows = cfg.arrayCols = 32;
        profiler.merge(core::runMultiCore(cfg, 4, 4, topo).profile);
        return profiler.snapshot();
    }
    if (what == "sparse24" || what == "sparse14") {
        cfg.sparsity.enabled = true;
        topo = workloads::withUniformSparsity(
            topo, what == "sparse24" ? 2 : 1, 4);
    } else if (what == "energy") {
        cfg.energy.enabled = true;
    } else if (what == "dram") {
        cfg.dram.enabled = true;
    } else if (what == "layout") {
        cfg.layout.enabled = true;
        cfg.layout.banks = 32;
        cfg.layout.onChipBandwidth = 256;
    }
    // The plain simulator skips the demand pass without consumers, so
    // the baseline and the sparse and DRAM runs, which build on v2's
    // trace generation, drive it here.
    if (!cfg.energy.enabled && !cfg.layout.enabled)
        chargeDemandPass(profiler, topo, cfg);
    profiler.merge(core::Simulator(cfg).run(topo).profile);
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
    parallelFor(profiles.size(), jobs, [&](std::uint64_t i) {
        const int w = static_cast<int>(i) / kPerWorkload;
        const int f = static_cast<int>(i) % kPerWorkload;
        const Topology topo = workloads::byName(workload_names[w]);
        profiles[i] = pointProfile(topo, f == 0 ? "baseline"
                                                : features[f - 1]);
    });
    const double wall_seconds = wall.seconds();

    benchutil::Table table({10, 11, 13, 13, 11, 11, 8});
    table.row({"Workload", "Multi-core", "Sparse 2:4", "Sparse 1:4",
               "Energy", "DRAM", "Layout"});
    table.rule();
    double mean[kFeatures] = {};
    double mean_cpu[kFeatures] = {};
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
            mean_cpu[f] += feat.cpuSeconds
                / std::max(base.cpuSeconds, 1e-9);
            row.push_back(benchutil::fmt("%.2fx", overhead));
            aggregate.merge(feat);
        }
        aggregate.merge(base);
        table.row(row);
    }
    std::vector<std::string> mean_row = {"Mean"};
    std::vector<std::string> cpu_row = {"Mean CPU"};
    for (int f = 0; f < kFeatures; ++f) {
        mean_row.push_back(benchutil::fmt("%.2fx", mean[f] / 4.0));
        cpu_row.push_back(benchutil::fmt("%.2fx", mean_cpu[f] / 4.0));
    }
    table.rule();
    table.row(mean_row);
    table.row(cpu_row);
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
    std::printf("  %-12s %10.3f s  (CPU time of the simulating "
                "threads)\n", "cpu", aggregate.cpuSeconds);
    std::printf("  %-12s %10llu KiB (process peak RSS)\n", "peakRss",
                static_cast<unsigned long long>(aggregate.peakRssKb));
    std::printf("bench wall-clock: %.3f s at jobs=%u\n", wall_seconds,
                resolveJobs(jobs));
    return 0;
}
