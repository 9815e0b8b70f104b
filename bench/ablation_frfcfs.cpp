/**
 * @file
 * Ablation: FR-FCFS reorder-window size and the row-hit streak cap in
 * the DRAM controller. Replays an interleaved multi-stream trace
 * (several row-local streams hitting the same banks, the pattern a
 * multi-core accelerator generates) across window sizes and reports
 * row-hit rate and makespan — the design choice our Ramulator
 * substitute exposes as a knob.
 */

#include "bench_util.hpp"
#include "common/log.hpp"
#include "dram/system.hpp"

using namespace scalesim;
using namespace scalesim::dram;

namespace
{

std::vector<TraceEntry>
interleavedStreams(const DramTiming& timing, int streams, int per)
{
    // Stream s reads sequentially within its own row region; entries
    // are interleaved round-robin, so an in-order controller thrashes.
    std::vector<TraceEntry> trace;
    const Addr region = static_cast<Addr>(timing.rowBytes)
        * timing.banksPerRank; // same bank, different rows
    for (int i = 0; i < per; ++i) {
        for (int s = 0; s < streams; ++s) {
            trace.push_back({static_cast<Cycle>(trace.size()),
                             static_cast<Addr>(s) * region
                                 + static_cast<Addr>(i) * 64,
                             false});
        }
    }
    return trace;
}

} // namespace

int
main(int argc, char** argv)
{
    benchutil::noArgs(argc, argv);
    setQuiet(true);
    std::printf("=== Ablation: FR-FCFS reorder window (DRAM "
                "controller) ===\n");
    const DramTiming timing = timingPreset("DDR4_2400");
    const auto trace = interleavedStreams(timing, 4, 256);

    benchutil::Table table({10, 12, 12, 14, 14});
    table.row({"window", "row hits", "hit rate", "makespan",
               "avg rd lat"});
    table.rule();
    Cycle prev_makespan = ~static_cast<Cycle>(0);
    bool monotone = true;
    for (std::uint32_t window : {1u, 4u, 16u, 64u, 256u}) {
        DramSystemConfig cfg;
        cfg.timing = timing;
        cfg.reorderWindow = window;
        DramSystem sys(cfg);
        const TraceResult result = sys.runTrace(trace);
        table.row({benchutil::num(window),
                   benchutil::num(result.stats.rowHits),
                   benchutil::fmt("%.2f", result.stats.rowHitRate()),
                   benchutil::num(result.makespan),
                   benchutil::fmt("%.1f",
                                  result.stats.avgReadLatency())});
        if (result.makespan > prev_makespan + prev_makespan / 50)
            monotone = false;
        prev_makespan = result.makespan;
    }
    table.rule();
    std::printf("wider windows never hurt makespan (2%% tolerance): "
                "%s\n", monotone ? "yes" : "NO");

    // Streak-cap sanity: an uncapped scheduler can starve other rows;
    // with the cap, every stream advances.
    DramSystemConfig capped;
    capped.timing = timing;
    capped.reorderWindow = 256;
    capped.hitStreakCap = 4;
    DramSystem sys(capped);
    const TraceResult result = sys.runTrace(trace);
    std::printf("hitStreakCap=4: hit rate %.2f (fairness at a small "
                "throughput cost)\n", result.stats.rowHitRate());
    return 0;
}
