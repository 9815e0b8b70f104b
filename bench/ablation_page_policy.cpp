/**
 * @file
 * Ablation: DRAM row-buffer page policy. Open-page exploits row
 * locality (streaming accelerator traffic loves it); closed-page
 * auto-precharges, trading away hits to avoid conflict penalties on
 * scattered traffic. Evaluated on the trace-driven API with a
 * streaming trace, a row-thrashing trace, and a paced random trace.
 */

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "dram/system.hpp"

using namespace scalesim;
using namespace scalesim::dram;

namespace
{

TraceResult
replay(const std::vector<TraceEntry>& trace, PagePolicy policy)
{
    DramSystemConfig cfg;
    cfg.timing = timingPreset("DDR4_2400");
    cfg.pagePolicy = policy;
    DramSystem sys(cfg);
    return sys.runTrace(trace);
}

} // namespace

int
main(int argc, char** argv)
{
    benchutil::noArgs(argc, argv);
    setQuiet(true);
    std::printf("=== Ablation: open- vs closed-page DRAM policy ===\n");
    const DramTiming t = timingPreset("DDR4_2400");

    std::vector<TraceEntry> streaming;
    for (int i = 0; i < 1024; ++i)
        streaming.push_back({static_cast<Cycle>(i),
                             static_cast<Addr>(i) * 64, false});

    std::vector<TraceEntry> thrash;
    for (int i = 0; i < 1024; ++i) {
        thrash.push_back({static_cast<Cycle>(i) * 150,
                          static_cast<Addr>(i % 2) * t.rowBytes
                              * t.banksPerRank,
                          false});
    }

    Rng rng(99);
    std::vector<TraceEntry> random_paced;
    for (int i = 0; i < 1024; ++i) {
        random_paced.push_back({static_cast<Cycle>(i) * 150,
                                rng.below(1u << 28) & ~63ull, false});
    }

    benchutil::Table table({12, 16, 16, 12});
    table.row({"trace", "open avg lat", "closed avg lat", "winner"});
    table.rule();
    struct Case
    {
        const char* name;
        const std::vector<TraceEntry>* trace;
    };
    const Case cases[] = {{"streaming", &streaming},
                          {"row-thrash", &thrash},
                          {"random", &random_paced}};
    bool open_wins_streaming = false;
    bool closed_wins_thrash = false;
    for (const auto& c : cases) {
        const auto open = replay(*c.trace, PagePolicy::Open);
        const auto closed = replay(*c.trace, PagePolicy::Closed);
        const double lo = open.stats.avgReadLatency();
        const double lc = closed.stats.avgReadLatency();
        table.row({c.name, benchutil::fmt("%.1f", lo),
                   benchutil::fmt("%.1f", lc),
                   lo <= lc ? "open" : "closed"});
        if (std::string(c.name) == "streaming" && lo < lc)
            open_wins_streaming = true;
        if (std::string(c.name) == "row-thrash" && lc < lo)
            closed_wins_thrash = true;
    }
    table.rule();
    std::printf("open-page wins streaming, closed-page wins paced "
                "row-thrash: %s\n",
                (open_wins_streaming && closed_wins_thrash) ? "yes"
                                                            : "NO");
    return 0;
}
