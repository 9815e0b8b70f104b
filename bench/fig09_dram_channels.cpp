/**
 * @file
 * Reproduces Fig. 9: impact of DDR4 channel count (1..8) on per-layer
 * memory throughput for ResNet-18 on a TPU-like configuration (§V-C:
 * DDR4-2400, 128-entry read/write queues). Early, memory-heavy layers
 * scale with channels; late 1x1/FC layers saturate around 2 channels.
 */

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/workloads.hpp"
#include "core/simulator.hpp"

using namespace scalesim;

namespace
{

struct LayerThroughput
{
    std::string name;
    double mbps[4]; // channels 1, 2, 4, 8
};

} // namespace

int
main(int argc, char** argv)
{
    setQuiet(true);
    const unsigned jobs = benchutil::jobsFromArgs(argc, argv, 1);
    std::printf("=== Fig. 9: memory throughput (MB/s) vs DRAM "
                "channels, ResNet-18, TPU config ===\n");
    const std::uint32_t channel_counts[] = {1, 2, 4, 8};
    const Topology topo = workloads::resnet18();
    std::vector<LayerThroughput> rows(topo.layers.size());
    for (std::size_t i = 0; i < topo.layers.size(); ++i)
        rows[i].name = topo.layers[i].name;

    // One config point per channel count; each point owns its
    // Simulator and writes a distinct mbps column, so the table is
    // identical for every --jobs value.
    parallelFor(4, jobs, [&](std::uint64_t ci) {
        SimConfig cfg = SimConfig::tpuMemoryStudy();
        cfg.mode = SimMode::Analytical;
        cfg.dram.channels = channel_counts[ci];
        // The paper's Fig. 9 uses SCALE-Sim's im2col-expanded traffic
        // accounting; our window-reuse addressing (the default) evens
        // out per-layer memory intensity (see ablation_conv_reuse).
        cfg.memory.im2colAddressing = false;
        core::Simulator sim(cfg);
        const core::RunResult run = sim.run(topo);
        for (std::size_t i = 0; i < run.layers.size(); ++i) {
            const auto& l = run.layers[i];
            const double seconds = static_cast<double>(l.totalCycles)
                / (cfg.dram.coreClockMhz * 1e6);
            const double bytes = static_cast<double>(
                l.timing.dramReadWords + l.timing.dramWriteWords)
                * cfg.memory.wordBytes;
            rows[i].mbps[ci] = bytes / seconds / 1e6;
        }
    });

    benchutil::Table table({10, 12, 12, 12, 12, 10});
    table.row({"layer", "1ch", "2ch", "4ch", "8ch", "8ch/1ch"});
    table.rule();
    double early_gain = 0.0;
    double late_gain = 0.0;
    int early_n = 0, late_n = 0;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const double gain = rows[i].mbps[3]
            / std::max(1e-9, rows[i].mbps[0]);
        table.row({rows[i].name, benchutil::fmt("%.0f", rows[i].mbps[0]),
                   benchutil::fmt("%.0f", rows[i].mbps[1]),
                   benchutil::fmt("%.0f", rows[i].mbps[2]),
                   benchutil::fmt("%.0f", rows[i].mbps[3]),
                   benchutil::fmt("%.2fx", gain)});
        if (i < 6) {
            early_gain += gain;
            ++early_n;
        } else if (i >= rows.size() - 6) {
            late_gain += gain;
            ++late_n;
        }
    }
    table.rule();
    early_gain /= early_n;
    late_gain /= late_n;
    std::printf("mean 8ch/1ch throughput gain: early layers %.2fx, "
                "late layers %.2fx (paper: early layers scale with "
                "channels, late layers saturate ~2ch)\n",
                early_gain, late_gain);
    return 0;
}
