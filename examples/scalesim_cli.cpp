/**
 * @file
 * SCALE-Sim-style command-line front-end:
 *
 *   scalesim_cli [-c config.cfg] [-t topology.csv | -w workload]
 *                [-o output_dir] [-s]
 *
 * -s additionally writes the cycle-accurate SRAM demand traces
 * (IFMAP_SRAM_TRACE.csv etc.) and the main-memory request trace
 * (MEM_TRACE.csv, §V-B format) into the output directory.
 *
 * Mirrors the original tool's flow: parse the .cfg, parse the topology
 * CSV (conv or GEMM format, with the v3 SparsitySupport column), run,
 * and write COMPUTE_REPORT.csv / BANDWIDTH_REPORT.csv /
 * SPARSE_REPORT.csv / ENERGY_REPORT.csv into the output directory.
 * With no arguments it runs ResNet-18 on the default configuration.
 */

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <string>
#include <string_view>

#include "check/audit.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/workloads.hpp"
#include "core/simulator.hpp"
#include "multicore/trace_sim.hpp"
#include "obs/stats.hpp"
#include "systolic/trace_io.hpp"

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
    bool write_traces = false;
    bool fold_cache = true;
    bool audit = false;
    std::string interval_arg;
    std::string multicore_grid;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "-c") {
            config_path = next();
        } else if (arg == "-t") {
            topology_path = next();
        } else if (arg == "-w") {
            workload = next();
        } else if (arg == "-o") {
            out_dir = next();
        } else if (arg == "-s") {
            write_traces = true;
        } else if (arg == "--stats") {
            stats_path = next();
        } else if (arg == "--stats-json") {
            stats_json_path = next();
        } else if (arg == "--json") {
            json_path = next();
        } else if (arg == "--trace") {
            trace_path = next();
        } else if (arg == "--no-fold-cache") {
            fold_cache = false;
        } else if (arg == "--audit") {
            audit = true;
        } else if (arg == "--interval") {
            interval_arg = next();
        } else if (arg == "--multicore") {
            multicore_grid = next();
        } else {
            usage();
            return arg == "-h" || arg == "--help" ? 0 : 1;
        }
    }

    try {
        SimConfig cfg = config_path.empty()
            ? SimConfig{} : SimConfig::load(config_path);
        if (config_path.empty()) {
            cfg.energy.enabled = true;
            cfg.sparsity.enabled = true;
        }
        const Topology topo = topology_path.empty()
            ? workloads::byName(workload)
            : Topology::load(topology_path);
        if (!trace_path.empty())
            cfg.memory.recordFoldSpans = true;
        if (!fold_cache)
            cfg.foldCache = false;
        if (audit)
            cfg.audit = true;
        if (!interval_arg.empty()) {
            std::uint64_t interval = 0;
            if (parseUint64(interval_arg, interval)
                != NumberParse::Ok) {
                fatal("--interval expects a cycle count, got '%s'",
                      interval_arg.c_str());
            }
            cfg.intervalCycles = interval;
        }

        if (!multicore_grid.empty()) {
            // Trace-level multi-core path: partition each layer over a
            // PrxPc grid of arrays sharing an L2 and the DRAM bus.
            std::uint64_t pr = 0, pc = 0;
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
            multicore::MultiCoreTraceConfig mc;
            mc.pr = pr;
            mc.pc = pc;
            mc.arrayRows = cfg.arrayRows;
            mc.arrayCols = cfg.arrayCols;
            mc.dataflow = cfg.dataflow;
            mc.dramWordsPerCycle = cfg.memory.bandwidthWordsPerCycle;
            mc.l1 = systolic::scratchpadConfig(cfg);

            inform("running %s (%zu layers) on a %llux%llu grid of "
                   "%ux%u %s arrays",
                   topo.name.c_str(), topo.layers.size(),
                   static_cast<unsigned long long>(pr),
                   static_cast<unsigned long long>(pc),
                   cfg.arrayRows, cfg.arrayCols,
                   toString(cfg.dataflow).c_str());

            multicore::MultiCoreTraceSimulator mcs(mc);
            obs::StatsRegistry reg;
            check::InvariantAuditor auditor;
            Cycle makespan = 0;
            std::uint64_t conflicts = 0;
            std::uint64_t dram_read = 0;
            std::uint64_t dram_write = 0;
            for (std::size_t li = 0; li < topo.layers.size(); ++li) {
                const auto& layer = topo.layers[li];
                const auto res = mcs.runLayer(layer);
                res.registerStats(reg,
                                  "mc.l" + std::to_string(li));
                if (audit) {
                    const std::string scope = "mc.l"
                        + std::to_string(li);
                    auditor.auditArbiter(res, mc.useL2, scope);
                    for (std::size_t c = 0; c < res.perCore.size();
                         ++c) {
                        const std::string core_scope = scope
                            + ".core" + std::to_string(c);
                        auditor.auditStallAccounting(res.perCore[c],
                                                     core_scope);
                        auditor.auditCpiStack(
                            res.perCore[c].cpi,
                            res.perCore[c].totalCycles, core_scope);
                    }
                }
                makespan += res.makespan;
                conflicts += res.arb.arbConflicts;
                dram_read += res.dramReadWords;
                dram_write += res.dramWriteWords;
                std::cout << layer.name << ": makespan "
                          << res.makespan << " cycles, dram "
                          << res.dramReadWords << "r/"
                          << res.dramWriteWords << "w words, arb conflicts "
                          << res.arb.arbConflicts << "\n";
            }
            std::cout << "total makespan:   " << makespan
                      << " cycles\n"
                      << "dram read words:  " << dram_read << "\n"
                      << "dram write words: " << dram_write << "\n"
                      << "arb conflicts:    " << conflicts << "\n";
            if (audit) {
                auditor.report().registerStats(reg);
                std::cout << "audit checks:     "
                          << auditor.report().checks() << ", "
                          << auditor.report().violations().size()
                          << " violation(s)\n";
                auditor.report().writeReport(std::cerr);
            }

            auto dump_to = [&](const std::string& path,
                               auto writer) {
                std::ofstream out(path);
                if (!out)
                    fatal("cannot write %s", path.c_str());
                (reg.*writer)(out);
                inform("wrote %s", path.c_str());
            };
            if (!stats_path.empty())
                dump_to(stats_path, &obs::StatsRegistry::dump);
            if (!stats_json_path.empty())
                dump_to(stats_json_path,
                        &obs::StatsRegistry::dumpJson);
            if (!json_path.empty() || !trace_path.empty()
                || write_traces || cfg.intervalCycles > 0) {
                warn("--json/--trace/-s/--interval are single-core "
                     "outputs; ignored with --multicore");
            }
            return audit && !auditor.report().clean() ? 2 : 0;
        }

        inform("running %s (%zu layers) on a %ux%u %s array",
               topo.name.c_str(), topo.layers.size(), cfg.arrayRows,
               cfg.arrayCols, toString(cfg.dataflow).c_str());
        core::Simulator sim(cfg);
        const core::RunResult run = sim.run(topo);

        std::filesystem::create_directories(out_dir);
        auto write = [&](const char* name, auto writer) {
            const std::string path = out_dir + "/" + name;
            std::ofstream out(path);
            if (!out)
                fatal("cannot write %s", path.c_str());
            (run.*writer)(out);
            inform("wrote %s", path.c_str());
        };
        write("COMPUTE_REPORT.csv", &core::RunResult::writeComputeReport);
        write("BANDWIDTH_REPORT.csv",
              &core::RunResult::writeBandwidthReport);
        if (cfg.sparsity.enabled || cfg.sparsity.optimizedMapping) {
            write("SPARSE_REPORT.csv",
                  &core::RunResult::writeSparseReport);
        }
        if (cfg.energy.enabled) {
            write("ENERGY_REPORT.csv",
                  &core::RunResult::writeEnergyReport);
            write("POWER_REPORT.csv", &core::RunResult::writePowerReport);
        }

        // Observability outputs go to explicit paths (not out_dir).
        auto write_to = [&](const std::string& path, auto writer) {
            std::ofstream out(path);
            if (!out)
                fatal("cannot write %s", path.c_str());
            (run.*writer)(out);
            inform("wrote %s", path.c_str());
        };
        if (!stats_path.empty())
            write_to(stats_path, &core::RunResult::writeStats);
        if (!stats_json_path.empty())
            write_to(stats_json_path, &core::RunResult::writeStatsJson);
        if (!json_path.empty())
            write_to(json_path, &core::RunResult::writeJson);
        if (!trace_path.empty())
            write_to(trace_path, &core::RunResult::writeChromeTrace);

        if (!run.intervals.empty()) {
            auto write_series = [&](const char* name, auto method) {
                const std::string path = out_dir + "/" + name;
                std::ofstream out(path);
                if (!out)
                    fatal("cannot write %s", path.c_str());
                (run.intervals.*method)(out);
                inform("wrote %s", path.c_str());
            };
            write_series("INTERVAL_STATS.txt",
                         &obs::IntervalSeries::writeStatsText);
            write_series("INTERVAL_SERIES.csv",
                         &obs::IntervalSeries::writeCsv);
            write_series("INTERVAL_SERIES.json",
                         &obs::IntervalSeries::writeJson);
        }

        if (write_traces) {
            // Cycle-accurate SRAM traces from one demand pass per
            // layer, plus the §V-B main-memory request trace.
            std::ofstream ifmap_out(out_dir + "/IFMAP_SRAM_TRACE.csv");
            std::ofstream filter_out(out_dir
                                     + "/FILTER_SRAM_TRACE.csv");
            std::ofstream ofmap_out(out_dir + "/OFMAP_SRAM_TRACE.csv");
            std::ofstream oread_out(out_dir
                                    + "/OFMAP_READ_SRAM_TRACE.csv");
            systolic::BandwidthMemory inner(
                cfg.memory.bandwidthWordsPerCycle);
            systolic::TracingMemory tracer(inner,
                                           cfg.memory.wordBytes);
            systolic::DoubleBufferedScratchpad spad(
                systolic::scratchpadConfig(cfg), tracer);
            for (const auto& layer : topo.layers) {
                const auto operands = systolic::OperandMap::forLayer(
                    layer, cfg.memory);
                systolic::DemandGenerator gen(
                    layer.toGemm(), cfg.dataflow, cfg.arrayRows,
                    cfg.arrayCols, operands);
                gen.setFoldCache(cfg.foldCache);
                systolic::SramTraceWriter writer(&ifmap_out,
                                                 &filter_out,
                                                 &ofmap_out,
                                                 &oread_out);
                gen.run(writer);
                spad.reset();
                spad.runLayer(gen.grid(), operands);
            }
            std::ofstream mem_out(out_dir + "/MEM_TRACE.csv");
            systolic::writeMemTrace(mem_out, tracer.records());
            inform("wrote SRAM and memory traces to %s",
                   out_dir.c_str());
        }

        run.writeSummary(std::cout);
        std::cout << "total cycles:   " << run.totalCycles << "\n"
                  << "compute cycles: " << run.computeCycles << "\n"
                  << "stall cycles:   " << run.stallCycles << "\n";
        if (cfg.energy.enabled) {
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
