/**
 * @file
 * Multi-core contention benchmark: runs the trace-mode multi-core
 * simulator on a sweep of grid/bandwidth/dataflow points and records,
 * per point, the makespan, the arbitration grant and conflict counts,
 * the cores' port queueing delay and wall-clock cost into
 * BENCH_multicore.json.
 *
 *   multicore_contention [output.json] [--jobs N]
 *
 * Points are independent (each owns its simulator), so `--jobs N`
 * sweeps them on N threads — results are identical for every N; the
 * TSan CI job runs this with --jobs 4 to race-check the interleaved
 * engine.
 *
 * After the sweep, one timed pass runs alone: every ResNet-18 layer on
 * a 4x4 grid of 32x32 cores (the default run configuration), best of
 * five, each pass divided by a calibration loop timed around it. Its
 * grant count (`gateGrants`, the grants of the layers the simulator
 * arbitrated, not of those it answered from stored results) and
 * calibrated time (`gateCalibrated`) gate the grant loop's cost in CI.
 */

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "common/config.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "common/workloads.hpp"
#include "multicore/trace_sim.hpp"

using namespace scalesim;
using namespace scalesim::multicore;

namespace
{

struct Point
{
    const char* name;
    std::uint64_t pr, pc;
    Dataflow dataflow;
    bool useL2;
    double dramWordsPerCycle;
    LayerSpec layer;
};

struct Outcome
{
    Cycle sharedMakespan = 0;
    std::uint64_t arbConflicts = 0;
    std::uint64_t grants = 0;
    std::uint64_t stallOnL2 = 0;
    double sharedSeconds = 0.0;
};

MultiCoreTraceConfig
configFor(const Point& p)
{
    MultiCoreTraceConfig cfg;
    cfg.pr = p.pr;
    cfg.pc = p.pc;
    cfg.arrayRows = cfg.arrayCols = 16;
    cfg.dataflow = p.dataflow;
    cfg.useL2 = p.useL2;
    cfg.dramWordsPerCycle = p.dramWordsPerCycle;
    cfg.l1.ifmapWords = 4096;
    cfg.l1.filterWords = 4096;
    return cfg;
}

Outcome
runPoint(const Point& p)
{
    Outcome out;
    benchutil::Timer t;
    MultiCoreTraceSimulator sh(configFor(p));
    const auto shared = sh.runLayer(p.layer);
    out.sharedSeconds = t.seconds();
    out.sharedMakespan = shared.makespan;
    out.arbConflicts = shared.arb.arbConflicts;
    out.grants = shared.arb.grants;
    for (const auto& port : shared.ports)
        out.stallOnL2 += port.waitCycles;
    return out;
}

/** The timed pass: grants per pass and the best calibrated time. */
struct Gate
{
    std::uint64_t grants = 0;
    benchutil::CalibratedBest best;
};

Gate
runGate(int passes)
{
    const Topology topo = workloads::byName("resnet18");
    const MultiCoreTraceConfig cfg = multiCoreTraceConfig(SimConfig{}, 4,
                                                          4);
    Gate gate;
    for (int pass = 0; pass < passes; ++pass) {
        std::uint64_t grants = 0;
        gate.best.time([&] {
            MultiCoreTraceSimulator sim(cfg);
            for (const LayerSpec& layer : topo.layers) {
                // A layer the simulator answers from its stored results
                // grants nothing; count only layers it arbitrated.
                const std::uint64_t reused = sim.layersReused();
                const std::uint64_t layer_grants =
                    sim.runLayer(layer).arb.grants;
                if (sim.layersReused() == reused)
                    grants += layer_grants;
            }
        });
        if (pass > 0 && grants != gate.grants)
            fatal("gate pass %d granted %" PRIu64 " times, not %" PRIu64,
                  pass, grants, gate.grants);
        gate.grants = grants;
    }
    return gate;
}

} // namespace

int
main(int argc, char** argv)
{
    std::string out_path = "BENCH_multicore.json";
    if (argc > 1 && argv[1][0] != '-')
        out_path = argv[1];
    const unsigned jobs = benchutil::jobsFromArgs(argc, argv, 1,
                                                   "[OUT.json] ");

    const std::vector<Point> points = {
        {"ws_l2_ample", 2, 2, Dataflow::WeightStationary, true, 32.0,
         LayerSpec::gemm("g", 256, 128, 128)},
        {"ws_l2_starved", 2, 2, Dataflow::WeightStationary, true, 4.0,
         LayerSpec::gemm("g", 256, 128, 128)},
        {"os_nol2_starved", 2, 2, Dataflow::OutputStationary, false,
         4.0, LayerSpec::gemm("g", 96, 64, 48)},
        {"os_nol2_ample", 2, 2, Dataflow::OutputStationary, false,
         64.0, LayerSpec::gemm("g", 96, 64, 48)},
        {"is_conv_l2", 1, 4, Dataflow::InputStationary, true, 8.0,
         LayerSpec::conv("c", 14, 14, 3, 3, 32, 64, 1)},
        {"ws_wide_grid", 4, 4, Dataflow::WeightStationary, true, 16.0,
         LayerSpec::gemm("g", 512, 256, 256)},
    };

    std::vector<Outcome> outcomes(points.size());
    benchutil::Timer total;
    parallelFor(points.size(), jobs, [&](std::uint64_t i) {
        outcomes[i] = runPoint(points[i]);
    });
    const double total_s = total.seconds();
    const Gate gate = runGate(5);

    benchutil::Table table({16, 12, 12, 12, 10});
    table.row({"point", "makespan", "arbGrants", "arbConf", "wall(s)"});
    table.rule();
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto& o = outcomes[i];
        table.row({points[i].name, benchutil::num(o.sharedMakespan),
                   benchutil::num(o.grants),
                   benchutil::num(o.arbConflicts),
                   benchutil::fmt("%.3f", o.sharedSeconds)});
    }

    std::ofstream out(out_path);
    if (!out)
        fatal("cannot write %s", out_path.c_str());
    out << "{\n"
        << "  \"benchmark\": \"multicore_contention\",\n"
        << "  \"jobs\": " << jobs << ",\n"
        << "  \"totalWallSeconds\": "
        << benchutil::fmt("%.6f", total_s) << ",\n"
        << "  \"gateGrants\": " << gate.grants << ",\n"
        << "  \"gateSeconds\": "
        << benchutil::fmt("%.6f", gate.best.seconds) << ",\n"
        << "  \"gateCalibrated\": "
        << benchutil::fmt("%.4f", gate.best.calibrated) << ",\n"
        << "  \"points\": [\n";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const auto& p = points[i];
        const auto& o = outcomes[i];
        out << "    {\n"
            << "      \"name\": \"" << p.name << "\",\n"
            << "      \"grid\": \"" << p.pr << "x" << p.pc << "\",\n"
            << "      \"dataflow\": \"" << toString(p.dataflow)
            << "\",\n"
            << "      \"useL2\": " << (p.useL2 ? "true" : "false")
            << ",\n"
            << "      \"dramWordsPerCycle\": "
            << benchutil::fmt("%.1f", p.dramWordsPerCycle) << ",\n"
            << "      \"sharedMakespan\": " << o.sharedMakespan
            << ",\n"
            << "      \"arbConflicts\": " << o.arbConflicts << ",\n"
            << "      \"arbGrants\": " << o.grants << ",\n"
            << "      \"stallOnL2\": " << o.stallOnL2 << ",\n"
            << "      \"sharedSeconds\": "
            << benchutil::fmt("%.6f", o.sharedSeconds) << "\n"
            << "    }" << (i + 1 < points.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
    std::printf("gate: resnet18 on 4x4 32x32 cores, %llu grants, "
                "%.3f s (%.2f calibration loops)\n",
                static_cast<unsigned long long>(gate.grants),
                gate.best.seconds, gate.best.calibrated);
    std::printf("wrote %s (%u jobs, %.3f s)\n", out_path.c_str(), jobs,
                total_s);

    // Acceptance check: the starved and ample no-L2 points run the same
    // layer and differ only in bandwidth, so real collisions on the
    // starved bus must show as conflicts and a longer makespan.
    const Outcome& starved = outcomes[2];
    const Outcome& ample = outcomes[3];
    if (starved.arbConflicts == 0
        || starved.sharedMakespan <= ample.sharedMakespan) {
        std::fprintf(stderr,
                     "FAIL: starved point shows no contention\n");
        return 1;
    }
    return 0;
}
