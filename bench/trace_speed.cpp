/**
 * @file
 * Trace-mode demand-generation speed microbenchmark for the
 * fold-replay cache. Two parts, each run cached and uncached:
 *
 *  1. The per-cycle demand pass itself (DemandGenerator +
 *     CountingVisitor — the v2-equivalent trace generation that
 *     bench/table4_sim_overhead uses as its baseline), best-of-N.
 *  2. The full trace-mode visitor stack (SramTraceWriter +
 *     CountingVisitor + ActionCountVisitor, what scalesim_cli -s
 *     drives); the cached stack is best-of-N, the uncached one runs
 *     once. In the cached pass a class's capture fold, like every
 *     replayed fold, reaches the visitors that decline replayFold
 *     (writer and counter) as a replay of its arena, here at zero
 *     delta.
 *
 * Cached and uncached runs must agree on every access total and trace
 * row count. The JSON records the fold-cache counters and each cached
 * pass's time over the calibration loops run around it
 * (`cachedCalibrated`, `fullStackCachedCalibrated`), which CI gates.
 *
 *   trace_speed [workload] [output.json] [reps]
 *
 * Defaults: resnet50, BENCH_trace_speed.json, 3 repetitions.
 */

#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/workloads.hpp"
#include "energy/action_counts.hpp"
#include "systolic/demand.hpp"
#include "systolic/trace_io.hpp"

using namespace scalesim;
using namespace scalesim::systolic;

namespace
{

struct PassTotals
{
    Count ifmapReads = 0;
    Count filterReads = 0;
    Count ofmapReads = 0;
    Count ofmapWrites = 0;
    Count traceRows = 0;
    Count macRandom = 0;
    FoldCacheStats cache;

    bool
    agrees(const PassTotals& o) const
    {
        return ifmapReads == o.ifmapReads && filterReads == o.filterReads
               && ofmapReads == o.ofmapReads
               && ofmapWrites == o.ofmapWrites && traceRows == o.traceRows
               && macRandom == o.macRandom;
    }
};

/** Discards everything written to it, cheaply. */
class NullBuffer : public std::streambuf
{
  protected:
    std::streamsize
    xsputn(const char*, std::streamsize n) override
    {
        return n;
    }
    int overflow(int c) override { return c; }
};

/**
 * One pass over every layer: the demand pass feeds a counting consumer
 * only, the `full` stack adds every scalesim_cli -s consumer.
 */
PassTotals
runPass(const Topology& topo, const SimConfig& cfg, bool cached,
        bool full)
{
    PassTotals totals;
    NullBuffer sink;
    std::ostream null(&sink);
    for (const auto& layer : topo.layers) {
        const auto operands = OperandMap::forLayer(layer, cfg.memory);
        DemandGenerator gen(layer.toGemm(), cfg.dataflow, cfg.arrayRows,
                            cfg.arrayCols, operands);
        gen.setFoldCache(cached);
        SramTraceWriter writer(&null, &null, &null, &null);
        CountingVisitor counter;
        energy::ActionCountVisitor actions(cfg.energy);
        TeeVisitor tee({&writer, &counter, &actions});
        if (full)
            gen.run(tee);
        else
            gen.run(counter);
        totals.ifmapReads += counter.ifmapReads;
        totals.filterReads += counter.filterReads;
        totals.ofmapReads += counter.ofmapReads;
        totals.ofmapWrites += counter.ofmapWrites;
        totals.traceRows += writer.rowsWritten();
        totals.macRandom += actions.counts().macRandom;
        totals.cache.merge(gen.foldCacheStats());
    }
    return totals;
}

} // namespace

int
main(int argc, char** argv)
{
    const std::string workload = argc > 1 ? argv[1] : "resnet50";
    const std::string out_path =
        argc > 2 ? argv[2] : "BENCH_trace_speed.json";
    std::int64_t reps = 3;
    if (argc > 3
        && (parseInt64(argv[3], reps) != NumberParse::Ok || reps < 1)) {
        std::cerr << "trace_speed: bad rep count '" << argv[3]
                  << "'\nusage: trace_speed [workload] [out.json]"
                     " [reps >= 1]\n";
        return 2;
    }

    const Topology topo = workloads::byName(workload);
    SimConfig cfg;
    cfg.arrayRows = 32;
    cfg.arrayCols = 32;

    std::cout << "trace_speed: " << topo.name << " ("
              << topo.layers.size() << " layers) on " << cfg.arrayRows
              << "x" << cfg.arrayCols << " "
              << toString(cfg.dataflow) << "\n";

    // The demand pass the cache accelerates.
    double best_live = 1e30;
    benchutil::CalibratedBest best_cached;
    PassTotals live, cached;
    for (std::int64_t rep = 0; rep < reps; ++rep) {
        benchutil::Timer t;
        live = runPass(topo, cfg, false, false);
        best_live = std::min(best_live, t.seconds());
        best_cached.time([&] { cached = runPass(topo, cfg, true, false); });
    }
    if (!cached.agrees(live)) {
        std::cerr << "FAIL: cached and uncached demand passes disagree "
                     "on access totals\n";
        return 1;
    }

    // Every trace-mode consumer.
    benchutil::Timer t;
    const PassTotals full_live = runPass(topo, cfg, false, true);
    const double full_live_s = t.seconds();
    benchutil::CalibratedBest full_cached;
    for (std::int64_t rep = 0; rep < reps; ++rep) {
        PassTotals full;
        full_cached.time([&] { full = runPass(topo, cfg, true, true); });
        if (!full.agrees(full_live)) {
            std::cerr << "FAIL: cached and uncached full-stack runs "
                         "disagree\n";
            return 1;
        }
    }

    const double speedup = best_live / best_cached.seconds;
    const double replay_rate = cached.cache.foldsTotal
        ? static_cast<double>(cached.cache.foldsReplayed)
              / static_cast<double>(cached.cache.foldsTotal)
        : 0.0;
    std::cout << "  demand pass uncached: "
              << benchutil::fmt("%.3f", best_live)
              << " s\n  demand pass cached:   "
              << benchutil::fmt("%.3f", best_cached.seconds) << " s ("
              << benchutil::fmt("%.2f", best_cached.calibrated)
              << " calibration loops)\n  speedup:              "
              << benchutil::fmt("%.2f", speedup) << "x\n  full stack:           "
              << benchutil::fmt("%.3f", full_live_s) << " s -> "
              << benchutil::fmt("%.3f", full_cached.seconds) << " s ("
              << benchutil::fmt("%.2f", full_cached.calibrated)
              << " calibration loops)\n  replayed:             "
              << cached.cache.foldsReplayed << "/"
              << cached.cache.foldsTotal << " folds ("
              << benchutil::fmt("%.1f", 100.0 * replay_rate)
              << "%), " << cached.cache.bytesSaved() / (1024 * 1024)
              << " MiB of addresses served from cache\n";

    std::ofstream out(out_path);
    if (!out)
        fatal("cannot write %s", out_path.c_str());
    out << "{\n"
        << "  \"benchmark\": \"trace_speed\",\n"
        << "  \"workload\": \"" << topo.name << "\",\n"
        << "  \"arrayRows\": " << cfg.arrayRows << ",\n"
        << "  \"arrayCols\": " << cfg.arrayCols << ",\n"
        << "  \"dataflow\": \"" << toString(cfg.dataflow) << "\",\n"
        << "  \"reps\": " << reps << ",\n"
        << "  \"uncachedSeconds\": "
        << benchutil::fmt("%.6f", best_live) << ",\n"
        << "  \"cachedSeconds\": "
        << benchutil::fmt("%.6f", best_cached.seconds) << ",\n"
        << "  \"cachedCalibrated\": "
        << benchutil::fmt("%.3f", best_cached.calibrated) << ",\n"
        << "  \"speedup\": " << benchutil::fmt("%.3f", speedup) << ",\n"
        << "  \"fullStackUncachedSeconds\": "
        << benchutil::fmt("%.6f", full_live_s) << ",\n"
        << "  \"fullStackCachedSeconds\": "
        << benchutil::fmt("%.6f", full_cached.seconds) << ",\n"
        << "  \"fullStackCachedCalibrated\": "
        << benchutil::fmt("%.3f", full_cached.calibrated) << ",\n"
        << "  \"foldsTotal\": " << cached.cache.foldsTotal << ",\n"
        << "  \"foldsReplayed\": " << cached.cache.foldsReplayed << ",\n"
        << "  \"foldsLive\": " << cached.cache.foldsLive << ",\n"
        << "  \"addrsReplayed\": " << cached.cache.addrsReplayed << ",\n"
        << "  \"bytesSaved\": " << cached.cache.bytesSaved() << "\n"
        << "}\n";
    std::cout << "wrote " << out_path << "\n";
    return speedup >= 1.0 ? 0 : 1;
}
