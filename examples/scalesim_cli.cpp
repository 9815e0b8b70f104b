/**
 * @file
 * SCALE-Sim-style command-line front-end:
 *
 *   scalesim_cli [-c config.cfg] [-t topology.csv | -w workload]
 *                [-o output_dir] [-s]
 *
 * -s additionally writes the cycle-accurate SRAM demand traces
 * (IFMAP_SRAM_TRACE.csv etc.) and the main-memory request trace
 * (MEM_TRACE.csv, §V-B format) of the simulated run itself into the
 * output directory.
 *
 * Mirrors the original tool's flow: parse the .cfg, parse the topology
 * CSV (conv or GEMM format, with the v3 SparsitySupport column), run,
 * and write COMPUTE_REPORT.csv / BANDWIDTH_REPORT.csv /
 * SPARSE_REPORT.csv / ENERGY_REPORT.csv into the output directory.
 * With no arguments it runs ResNet-18 on the default configuration.
 */

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/workloads.hpp"
#include "core/simulator.hpp"

using namespace scalesim;

namespace
{

void
usage()
{
    std::cerr <<
        "usage: scalesim_cli [-c config.cfg] [-t topology.csv]\n"
        "                    [-w workload] [-o output_dir] [-s]\n"
        "                    [--stats file] [--stats-json file]\n"
        "                    [--trace file] [--json file]\n"
        "                    [--no-fold-cache] [--audit]\n"
        "                    [--interval N]\n"
        "                    [--multicore PRxPC]\n"
        "  --no-fold-cache disable the fold-replay demand cache\n"
        "               (same outputs, slower trace mode)\n"
        "  --audit      audit cross-module conservation laws after\n"
        "               every layer; exit 2 on any violation\n"
        "  --interval   sample the stats registry every N simulated\n"
        "               cycles; writes INTERVAL_STATS.txt and\n"
        "               INTERVAL_SERIES.{csv,json} into the output\n"
        "               dir and adds counter tracks to --trace\n"
        "  --stats      gem5-format stats.txt dump\n"
        "  --stats-json machine-readable stats dump\n"
        "  --json       full run report as one JSON document\n"
        "  --trace      Chrome trace-event timeline (chrome://tracing\n"
        "               or ui.perfetto.dev); enables fold spans\n"
        "  --multicore  run the trace-level multi-core system on a\n"
        "               PRxPC grid (e.g. 2x2) instead of one core\n"
        "workloads: ";
    for (const auto& name : workloads::names())
        std::cerr << name << " ";
    std::cerr << "\n";
}

/** Open `path` for writing; fatal() if it cannot be created. */
std::ofstream
openOutput(const std::string& path)
{
    std::ofstream out(path);
    if (!out)
        fatal("cannot write %s", path.c_str());
    return out;
}

/** Write `(source.*writer)(out)` to `path` and say so. */
template <class Source, class Writer>
void
writeOutput(const std::string& path, const Source& source, Writer writer)
{
    std::ofstream out = openOutput(path);
    (source.*writer)(out);
    inform("wrote %s", path.c_str());
}

} // namespace

int
main(int argc, char** argv)
{
    std::string config_path;
    std::string topology_path;
    std::string workload = "resnet18";
    std::string out_dir = ".";
    std::string stats_path;
    std::string stats_json_path;
    std::string json_path;
    std::string trace_path;
    std::string interval_arg;
    std::string multicore_grid;
    bool write_traces = false;
    bool no_fold_cache = false;
    bool audit = false;
    const std::pair<std::string_view, std::string*> valued[] = {
        {"-c", &config_path}, {"-t", &topology_path}, {"-w", &workload},
        {"-o", &out_dir}, {"--stats", &stats_path},
        {"--stats-json", &stats_json_path}, {"--json", &json_path},
        {"--trace", &trace_path}, {"--interval", &interval_arg},
        {"--multicore", &multicore_grid}};
    const std::pair<std::string_view, bool*> flags[] = {
        {"-s", &write_traces}, {"--no-fold-cache", &no_fold_cache},
        {"--audit", &audit}};
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto named = [&](const auto& option) { return option.first == arg; };
        const auto value = std::ranges::find_if(valued, named);
        const auto flag = std::ranges::find_if(flags, named);
        if (value != std::end(valued) && i + 1 < argc) {
            *value->second = argv[++i];
        } else if (flag != std::end(flags)) {
            *flag->second = true;
        } else {
            usage();
            return arg == "-h" || arg == "--help" ? 0 : 1;
        }
    }

    try {
        SimConfig cfg = config_path.empty()
            ? SimConfig{} : SimConfig::load(config_path);
        // Without a config, single-core runs model energy and sparsity;
        // the multi-core run models neither.
        if (config_path.empty() && multicore_grid.empty()) {
            cfg.energy.enabled = true;
            cfg.sparsity.enabled = true;
        }
        const Topology topo = topology_path.empty()
            ? workloads::byName(workload)
            : Topology::load(topology_path);
        if (!trace_path.empty())
            cfg.memory.recordFoldSpans = true;
        if (no_fold_cache)
            cfg.foldCache = false;
        if (audit)
            cfg.audit = true;
        if (!interval_arg.empty()
            && parseUint64(interval_arg, cfg.intervalCycles)
                   != NumberParse::Ok) {
            fatal("--interval expects a cycle count, got '%s'",
                  interval_arg.c_str());
        }

        cfg.validate();

        // --multicore PRxPC: partition each layer over a PRxPC grid of
        // arrays sharing an L2 and the DRAM bus (pr == 0: one core).
        std::uint64_t pr = 0;
        std::uint64_t pc = 0;
        if (!multicore_grid.empty()) {
            const std::string_view grid = multicore_grid;
            const std::size_t cross = grid.find('x');
            if (cross == std::string_view::npos
                || parseUint64(grid.substr(0, cross), pr)
                       != NumberParse::Ok
                || parseUint64(grid.substr(cross + 1), pc)
                       != NumberParse::Ok
                || pr == 0 || pc == 0) {
                fatal("--multicore expects PRxPC (e.g. 2x2), got '%s'",
                      multicore_grid.c_str());
            }
            if (write_traces || cfg.intervalCycles > 0) {
                warn("-s/--interval are single-core outputs; ignored "
                     "with --multicore");
            }
        }
        const bool single_core = pr == 0;

        // -s: the run streams its traces straight into these files.
        std::filesystem::create_directories(out_dir);
        std::vector<std::ofstream> trace_files;
        core::TraceStreams traces;
        if (write_traces && single_core) {
            for (const char* name : {"IFMAP_SRAM_TRACE.csv",
                                     "FILTER_SRAM_TRACE.csv",
                                     "OFMAP_SRAM_TRACE.csv",
                                     "OFMAP_READ_SRAM_TRACE.csv",
                                     "MEM_TRACE.csv"})
                trace_files.push_back(openOutput(out_dir + "/" + name));
            traces = {&trace_files[0], &trace_files[1], &trace_files[2],
                      &trace_files[3], &trace_files[4]};
        }

        const std::string on_grid = single_core ? ""
                                                : multicore_grid + " grid of ";
        inform("running %s (%zu layers) on a %s%ux%u %s array%s",
               topo.name.c_str(), topo.layers.size(), on_grid.c_str(),
               cfg.arrayRows, cfg.arrayCols,
               toString(cfg.dataflow).c_str(), single_core ? "" : "s");
        const core::RunResult run = single_core
            ? core::Simulator(cfg, traces).run(topo)
            : core::runMultiCore(cfg, pr, pc, topo);
        for (std::ofstream& file : trace_files) {
            if (!file.flush())
                fatal("cannot write the traces in %s", out_dir.c_str());
        }
        if (!trace_files.empty())
            inform("wrote SRAM and memory traces to %s", out_dir.c_str());

        auto output = [&](const std::string& path, auto writer) {
            if (!path.empty())
                writeOutput(path, run, writer);
        };
        // Reports go to out_dir, for the models that ran: the multi-core
        // run has neither sparsity nor energy.
        const std::string dir = out_dir + "/";
        const bool energy = cfg.energy.enabled && single_core;
        output(dir + "COMPUTE_REPORT.csv",
               &core::RunResult::writeComputeReport);
        output(dir + "BANDWIDTH_REPORT.csv",
               &core::RunResult::writeBandwidthReport);
        if (cfg.sparsity.enabled && single_core) {
            output(dir + "SPARSE_REPORT.csv",
                   &core::RunResult::writeSparseReport);
        }
        if (energy) {
            output(dir + "ENERGY_REPORT.csv",
                   &core::RunResult::writeEnergyReport);
            output(dir + "POWER_REPORT.csv",
                   &core::RunResult::writePowerReport);
        }
        // Observability outputs go to explicit paths.
        output(stats_path, &core::RunResult::writeStats);
        output(stats_json_path, &core::RunResult::writeStatsJson);
        output(json_path, &core::RunResult::writeJson);
        output(trace_path, &core::RunResult::writeChromeTrace);

        if (!run.intervals.empty()) {
            const std::string series = out_dir + "/INTERVAL_";
            writeOutput(series + "STATS.txt", run.intervals,
                        &obs::IntervalSeries::writeStatsText);
            writeOutput(series + "SERIES.csv", run.intervals,
                        &obs::IntervalSeries::writeCsv);
            writeOutput(series + "SERIES.json", run.intervals,
                        &obs::IntervalSeries::writeJson);
        }

        run.writeSummary(std::cout);
        std::cout << "total cycles:   " << run.totalCycles << "\n"
                  << "compute cycles: " << run.computeCycles << "\n"
                  << "stall cycles:   " << run.stallCycles << "\n";
        if (energy) {
            std::cout << "energy (mJ):    "
                      << run.totalEnergy.totalMj() << "\n"
                      << "avg power (W):  " << run.avgPowerW << "\n"
                      << "EdP:            " << run.edp << "\n";
        }
        if (run.audited && !run.audit.clean()) {
            run.audit.writeReport(std::cerr);
            return 2;
        }
    } catch (const FatalError& err) {
        std::cerr << "error: " << err.what() << "\n";
        return 1;
    }
    return 0;
}
