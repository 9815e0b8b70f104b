/**
 * @file
 * Integration tests: the end-to-end Simulator with every v3 feature
 * combination — sparsity, DRAM, layout, energy — plus the report
 * writers, on small synthetic topologies and real workload prefixes.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <set>
#include <sstream>

#include "common/csv.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "check/audit.hpp"
#include "common/workloads.hpp"
#include "core/dse.hpp"
#include "core/simulator.hpp"
#include "systolic/demand.hpp"
#include "systolic/trace_io.hpp"

using namespace scalesim;
using namespace scalesim::core;

namespace
{

Topology
tinyTopology()
{
    Topology topo;
    topo.name = "tiny";
    topo.layers.push_back(LayerSpec::conv("conv", 14, 14, 3, 3, 16, 32,
                                          1));
    topo.layers.push_back(LayerSpec::gemm("fc", 4, 64, 128));
    return topo;
}

/** Occurrences of `what` in `text`. */
std::size_t
count(const std::string& text, const std::string& what)
{
    std::size_t n = 0;
    for (auto at = text.find(what); at != std::string::npos;
         at = text.find(what, at + 1)) {
        ++n;
    }
    return n;
}

SimConfig
baseConfig()
{
    SimConfig cfg;
    cfg.arrayRows = 16;
    cfg.arrayCols = 16;
    cfg.dataflow = Dataflow::WeightStationary;
    cfg.mode = SimMode::Trace;
    return cfg;
}

} // namespace

TEST(Simulator, PlainRunMatchesAnalyticalCycles)
{
    SimConfig cfg = baseConfig();
    Simulator sim(cfg);
    const Topology topo = tinyTopology();
    const RunResult run = sim.run(topo);
    ASSERT_EQ(run.layers.size(), 2u);
    for (std::size_t i = 0; i < topo.layers.size(); ++i) {
        const systolic::FoldGrid grid(topo.layers[i].toGemm(),
                                      cfg.dataflow, cfg.arrayRows,
                                      cfg.arrayCols);
        EXPECT_EQ(run.layers[i].computeCycles, grid.totalCycles());
        EXPECT_GE(run.layers[i].totalCycles,
                  run.layers[i].computeCycles);
    }
    EXPECT_EQ(run.totalCycles, run.computeCycles + run.stallCycles);
}

TEST(Simulator, AnalyticalAndTraceModesAgreeOnCycles)
{
    SimConfig trace_cfg = baseConfig();
    trace_cfg.energy.enabled = true;
    SimConfig analytical_cfg = trace_cfg;
    analytical_cfg.mode = SimMode::Analytical;
    Simulator trace_sim(trace_cfg);
    Simulator analytical_sim(analytical_cfg);
    const Topology topo = tinyTopology();
    const RunResult t = trace_sim.run(topo);
    const RunResult a = analytical_sim.run(topo);
    EXPECT_EQ(t.computeCycles, a.computeCycles);
    EXPECT_EQ(t.totalCycles, a.totalCycles);
    // MAC counts agree exactly; only the random/repeat split differs.
    for (std::size_t i = 0; i < t.layers.size(); ++i) {
        EXPECT_EQ(t.layers[i].actions.macRandom,
                  a.layers[i].actions.macRandom);
    }
}

TEST(Simulator, SparsityShrinksCyclesAndStorage)
{
    SimConfig cfg = baseConfig();
    cfg.sparsity.enabled = true;
    Simulator sim(cfg);

    Topology topo = tinyTopology();
    topo.layers[0].sparseN = 1;
    topo.layers[0].sparseM = 4;
    const RunResult sparse_run = sim.run(topo);

    SimConfig dense_cfg = baseConfig();
    Simulator dense_sim(dense_cfg);
    const RunResult dense_run = dense_sim.run(tinyTopology());

    EXPECT_LT(sparse_run.layers[0].totalCycles,
              dense_run.layers[0].totalCycles);
    ASSERT_TRUE(sparse_run.layers[0].sparse.has_value());
    const auto& report = *sparse_run.layers[0].sparse;
    EXPECT_LT(report.newFilterBits, report.originalFilterBits);
    EXPECT_EQ(report.compressedK, report.denseK / 4);
    // The dense second layer is untouched.
    EXPECT_FALSE(sparse_run.layers[1].sparse.has_value());
    EXPECT_EQ(sparse_run.layers[1].totalCycles,
              dense_run.layers[1].totalCycles);
}

TEST(Simulator, DramModelAddsRealisticStalls)
{
    SimConfig ideal = baseConfig();
    ideal.memory.bandwidthWordsPerCycle = 1e9;
    SimConfig with_dram = baseConfig();
    with_dram.dram.enabled = true;
    with_dram.dram.tech = "DDR4_2400";
    with_dram.dram.channels = 1;
    Simulator ideal_sim(ideal);
    Simulator dram_sim(with_dram);
    const Topology topo = tinyTopology();
    const RunResult i = ideal_sim.run(topo);
    const RunResult d = dram_sim.run(topo);
    EXPECT_EQ(i.computeCycles, d.computeCycles);
    EXPECT_GE(d.stallCycles, i.stallCycles);
    EXPECT_GT(d.dramStats.reads + d.dramStats.writes, 0u);
    EXPECT_GT(d.dramStats.rowHits + d.dramStats.rowMisses
                  + d.dramStats.rowConflicts, 0u);
}

TEST(Simulator, MoreDramChannelsNeverSlower)
{
    auto total_for = [&](std::uint32_t channels) {
        SimConfig cfg = baseConfig();
        cfg.dram.enabled = true;
        cfg.dram.channels = channels;
        Simulator sim(cfg);
        return sim.run(tinyTopology()).totalCycles;
    };
    EXPECT_LE(total_for(4), total_for(1));
}

TEST(Simulator, LayoutSlowdownStretchesCompute)
{
    SimConfig no_layout = baseConfig();
    SimConfig with_layout = baseConfig();
    with_layout.layout.enabled = true;
    with_layout.layout.banks = 2;
    with_layout.layout.portsPerBank = 1;
    with_layout.layout.onChipBandwidth = 32;
    Simulator plain(no_layout);
    Simulator laid_out(with_layout);
    const Topology topo = tinyTopology();
    const RunResult p = plain.run(topo);
    const RunResult l = laid_out.run(topo);
    EXPECT_GE(l.layers[0].layoutSlowdown, 1.0);
    EXPECT_GE(l.computeCycles, p.computeCycles);
}

TEST(Simulator, IgnoredLayoutModelWarnsOncePerRun)
{
    // Layout slowdown needs the trace-mode demand pass. Analytical runs
    // and sparse OS/IS layers skip it and keep slowdown 1.0; the run
    // says so once instead of silently.
    Topology sparse_topo = tinyTopology();
    sparse_topo.layers[0].sparseN = 1;
    sparse_topo.layers[0].sparseM = 4;
    sparse_topo.layers[1].sparseN = 2;
    sparse_topo.layers[1].sparseM = 4;
    auto run_stderr = [](SimConfig cfg, const Topology& topo) {
        cfg.layout.enabled = true;
        Simulator sim(cfg);
        ::testing::internal::CaptureStderr();
        const RunResult run = sim.run(topo);
        const std::string err = ::testing::internal::GetCapturedStderr();
        const bool skips_sparse =
            cfg.dataflow != Dataflow::WeightStationary;
        for (const LayerResult& l : run.layers) {
            if (cfg.mode != SimMode::Trace || (l.sparse && skips_sparse)) {
                EXPECT_EQ(l.layoutSlowdown, 1.0) << l.name;
            }
        }
        return err;
    };
    SimConfig analytical = baseConfig();
    analytical.mode = SimMode::Analytical;
    const std::string a = run_stderr(analytical, tinyTopology());
    EXPECT_EQ(count(a, "LayoutModel ignored"), 1u) << a;
    EXPECT_NE(a.find("trace mode"), std::string::npos) << a;

    SimConfig sparse_os = baseConfig();
    sparse_os.dataflow = Dataflow::OutputStationary;
    sparse_os.sparsity.enabled = true;
    const std::string s = run_stderr(sparse_os, sparse_topo);
    EXPECT_EQ(count(s, "LayoutModel ignored"), 1u) << s;
    EXPECT_NE(s.find("2 sparse layer(s)"), std::string::npos) << s;
    EXPECT_NE(s.find("sparse os layers"), std::string::npos) << s;

    // Layouts the run does evaluate stay quiet: dense trace runs and
    // sparse WS layers, which stream their gathered demand.
    SimConfig sparse_ws = baseConfig();
    sparse_ws.sparsity.enabled = true;
    EXPECT_EQ(count(run_stderr(sparse_ws, sparse_topo), "LayoutModel"),
              0u);
    EXPECT_EQ(count(run_stderr(baseConfig(), tinyTopology()),
                    "LayoutModel"),
              0u);
}

TEST(Simulator, BandwidthBesideDramModelWarnsOncePerRun)
{
    // With the DRAM model on, [architecture] Bandwidth times nothing;
    // a non-default value says so once per run, naming both keys.
    auto run_stderr = [](bool dram, double bandwidth) {
        SimConfig cfg = baseConfig();
        cfg.dram.enabled = dram;
        cfg.memory.bandwidthWordsPerCycle = bandwidth;
        Simulator sim(cfg);
        ::testing::internal::CaptureStderr();
        sim.run(tinyTopology());
        return ::testing::internal::GetCapturedStderr();
    };
    const double fallback = MemoryConfig{}.bandwidthWordsPerCycle;
    const std::string both = run_stderr(true, 2 * fallback);
    EXPECT_EQ(count(both, "Bandwidth ignored"), 1u) << both;
    EXPECT_NE(both.find("[architecture] Bandwidth"), std::string::npos)
        << both;
    EXPECT_NE(both.find("[memory] DramModel"), std::string::npos) << both;

    EXPECT_EQ(count(run_stderr(true, fallback), "Bandwidth"), 0u);
    EXPECT_EQ(count(run_stderr(false, 2 * fallback), "Bandwidth"), 0u);
}

TEST(Simulator, TraceTapsLeaveTheRunUnchanged)
{
    // -s traces are taps on the one run. Attaching them changes no stat
    // and no layer result; MEM_TRACE holds one row per request the run
    // issued, on the run's timeline; and a dense layer's SRAM traces
    // equal a standalone demand pass's.
    SimConfig cfg = baseConfig();
    cfg.dram.enabled = true;
    cfg.dram.channels = 2;
    cfg.memory.burstWords = 16;
    cfg.energy.enabled = true;
    const Topology topo = tinyTopology();

    const RunResult plain = Simulator(cfg).run(topo);
    std::ostringstream ifmap, filter, ofmap, oread, mem;
    Simulator traced_sim(cfg, {&ifmap, &filter, &ofmap, &oread, &mem});
    const RunResult traced = traced_sim.run(topo);

    std::ostringstream plain_stats, traced_stats;
    plain.writeStats(plain_stats);
    traced.writeStats(traced_stats);
    EXPECT_EQ(plain_stats.str(), traced_stats.str());
    ASSERT_EQ(plain.layers.size(), traced.layers.size());
    for (std::size_t i = 0; i < plain.layers.size(); ++i) {
        const LayerResult& a = plain.layers[i];
        const LayerResult& b = traced.layers[i];
        EXPECT_EQ(a.totalCycles, b.totalCycles) << a.name;
        EXPECT_EQ(a.computeCycles, b.computeCycles) << a.name;
        EXPECT_EQ(a.stallCycles, b.stallCycles) << a.name;
        EXPECT_EQ(a.timing.prefetchStallCycles,
                  b.timing.prefetchStallCycles) << a.name;
        EXPECT_EQ(a.timing.drainStallCycles, b.timing.drainStallCycles)
            << a.name;
        EXPECT_EQ(a.timing.bandwidthStallCycles,
                  b.timing.bandwidthStallCycles) << a.name;
        EXPECT_EQ(a.timing.dramReadRequests, b.timing.dramReadRequests)
            << a.name;
        EXPECT_EQ(a.timing.dramWriteRequests,
                  b.timing.dramWriteRequests) << a.name;
        EXPECT_EQ(a.timing.avgReadLatency, b.timing.avgReadLatency)
            << a.name;
        for (unsigned k = 0; k < obs::CpiStack::kBucketCount; ++k) {
            EXPECT_EQ(a.cpi.bucketValue(k), b.cpi.bucketValue(k))
                << a.name << " " << obs::CpiStack::bucketName(k);
        }
        EXPECT_EQ(a.energyBreakdown.totalPj(), b.energyBreakdown.totalPj())
            << a.name;
    }

    std::istringstream mem_in(mem.str());
    const auto records = systolic::readMemTrace(mem_in);
    EXPECT_EQ(static_cast<double>(records.size()),
              traced.stats.scalarValue("mem.readRequests")
                  + traced.stats.scalarValue("mem.writeRequests"));
    ASSERT_FALSE(records.empty());
    EXPECT_LE(records.back().cycle, traced.totalCycles);
    // The second layer's requests start on the run timeline, after the
    // first layer, not at cycle 0.
    EXPECT_GE(records.back().cycle, traced.layers[0].totalCycles);

    std::ostringstream want_ifmap, want_filter, want_ofmap, want_oread;
    for (const LayerSpec& layer : topo.layers) {
        systolic::DemandGenerator gen(
            layer.toGemm(), cfg.dataflow, cfg.arrayRows, cfg.arrayCols,
            systolic::OperandMap::forLayer(layer, cfg.memory));
        systolic::SramTraceWriter writer(&want_ifmap, &want_filter,
                                         &want_ofmap, &want_oread);
        gen.run(writer);
    }
    EXPECT_FALSE(want_ifmap.str().empty());
    EXPECT_EQ(ifmap.str(), want_ifmap.str());
    EXPECT_EQ(filter.str(), want_filter.str());
    EXPECT_EQ(ofmap.str(), want_ofmap.str());
    EXPECT_EQ(oread.str(), want_oread.str());

    // Audited, every layer's trace agrees with its timing.
    cfg.audit = true;
    std::ostringstream audited_mem;
    TraceStreams audited_traces;
    audited_traces.memory = &audited_mem;
    Simulator audited(cfg, audited_traces);
    const RunResult audited_run = audited.run(topo);
    EXPECT_TRUE(audited_run.audit.clean());
    EXPECT_EQ(audited_run.audit.checksForLaw("trace.agreement"),
              2 * topo.layers.size());
    EXPECT_EQ(audited_mem.str(), mem.str());
}

TEST(Simulator, SramTracesSkipSparseOsLayersWithOneWarning)
{
    Topology topo = tinyTopology();
    topo.layers[0].sparseN = 1;
    topo.layers[0].sparseM = 4;
    SimConfig cfg = baseConfig();
    cfg.sparsity.enabled = true;
    auto traced_run = [&](Dataflow df, std::string& err) {
        cfg.dataflow = df;
        std::ostringstream ifmap;
        TraceStreams traces;
        traces.ifmapSram = &ifmap;
        Simulator sim(cfg, traces);
        ::testing::internal::CaptureStderr();
        sim.run(topo);
        err = ::testing::internal::GetCapturedStderr();
        return ifmap.str();
    };
    std::string err;
    // Sparse WS layers trace the gathered stream the run simulates.
    const std::string ws = traced_run(Dataflow::WeightStationary, err);
    EXPECT_EQ(err.find("SRAM traces"), std::string::npos) << err;
    EXPECT_FALSE(ws.empty());
    // Sparse OS layers have no demand stream: only the dense fc layer
    // is traced, and the run says so once.
    const std::string os = traced_run(Dataflow::OutputStationary, err);
    EXPECT_NE(err.find("SRAM traces skip 1 sparse layer(s)"),
              std::string::npos) << err;
    EXPECT_EQ(err.find("SRAM traces"), err.rfind("SRAM traces")) << err;
    EXPECT_FALSE(os.empty());
}

TEST(Simulator, EnergyAccountingEndToEnd)
{
    SimConfig cfg = baseConfig();
    cfg.energy.enabled = true;
    Simulator sim(cfg);
    const RunResult run = sim.run(tinyTopology());
    EXPECT_GT(run.totalEnergy.totalPj(), 0.0);
    EXPECT_GT(run.avgPowerW, 0.0);
    EXPECT_GT(run.edp, 0.0);
    for (const auto& layer : run.layers) {
        EXPECT_GT(layer.energyBreakdown.totalPj(), 0.0);
        EXPECT_GT(layer.powerW, 0.0);
        // DRAM energy follows the measured traffic.
        EXPECT_EQ(layer.actions.dramReadWords,
                  layer.timing.dramReadWords);
    }
}

TEST(Simulator, AllFeaturesTogether)
{
    SimConfig cfg = baseConfig();
    cfg.sparsity.enabled = true;
    cfg.dram.enabled = true;
    cfg.layout.enabled = true;
    cfg.energy.enabled = true;
    Simulator sim(cfg);
    Topology topo = tinyTopology();
    topo.layers[0].sparseN = 2;
    topo.layers[0].sparseM = 4;
    const RunResult run = sim.run(topo);
    EXPECT_GT(run.totalCycles, 0u);
    EXPECT_GT(run.totalEnergy.totalPj(), 0.0);
    EXPECT_TRUE(run.layers[0].sparse.has_value());
    EXPECT_GE(run.layers[0].layoutSlowdown, 1.0);
}

TEST(Simulator, RepetitionsScaleTotals)
{
    SimConfig cfg = baseConfig();
    Topology once;
    once.name = "once";
    once.layers.push_back(LayerSpec::gemm("g", 32, 32, 32));
    Topology thrice = once;
    thrice.layers[0].repetitions = 3;
    Simulator sim_a(cfg);
    Simulator sim_b(cfg);
    const RunResult a = sim_a.run(once);
    const RunResult b = sim_b.run(thrice);
    EXPECT_EQ(b.totalCycles, 3 * a.totalCycles);
}

TEST(Simulator, ReportsAreWellFormedCsv)
{
    SimConfig cfg = baseConfig();
    cfg.sparsity.enabled = true;
    cfg.energy.enabled = true;
    Simulator sim(cfg);
    Topology topo = tinyTopology();
    topo.layers[0].sparseN = 1;
    topo.layers[0].sparseM = 4;
    const RunResult run = sim.run(topo);

    auto check = [&](auto writer, std::size_t min_rows) {
        std::ostringstream out;
        (run.*writer)(out);
        std::istringstream in(out.str());
        const CsvTable table = CsvTable::parse(in);
        EXPECT_GE(table.numRows(), min_rows);
        EXPECT_FALSE(table.header().empty());
    };
    check(&RunResult::writeComputeReport, 2u);
    check(&RunResult::writeBandwidthReport, 2u);
    check(&RunResult::writeSparseReport, 1u);
    check(&RunResult::writeEnergyReport, 3u);
}

TEST(Simulator, RealWorkloadPrefixRuns)
{
    SimConfig cfg = baseConfig();
    cfg.arrayRows = 32;
    cfg.arrayCols = 32;
    cfg.energy.enabled = true;
    cfg.mode = SimMode::Analytical;
    Simulator sim(cfg);
    const RunResult run = sim.run(workloads::resnet18Prefix(6));
    EXPECT_EQ(run.layers.size(), 6u);
    EXPECT_GT(run.totalCycles, 0u);
    for (const auto& layer : run.layers) {
        EXPECT_GT(layer.utilization, 0.0);
        EXPECT_LE(layer.utilization, 1.0);
    }
}

TEST(Simulator, DataflowsProduceDifferentCycleProfiles)
{
    const Topology topo = tinyTopology();
    std::set<Cycle> totals;
    for (auto df : {Dataflow::OutputStationary,
                    Dataflow::WeightStationary,
                    Dataflow::InputStationary}) {
        SimConfig cfg = baseConfig();
        cfg.dataflow = df;
        Simulator sim(cfg);
        totals.insert(sim.run(topo).computeCycles);
    }
    EXPECT_GT(totals.size(), 1u);
}

TEST(Simulator, ConfigRoundTripFromIni)
{
    IniFile ini = IniFile::parseString(
        "[architecture]\nArrayHeight = 8\nArrayWidth = 8\n"
        "Dataflow = os\n[energy]\nEnergyModel = true\n");
    Simulator sim(SimConfig::fromIni(ini));
    const RunResult run = sim.run(tinyTopology());
    EXPECT_GT(run.totalEnergy.totalPj(), 0.0);
}

TEST(Simulator, PowerTraceCoversEveryLayerInstance)
{
    SimConfig cfg = baseConfig();
    cfg.energy.enabled = true;
    Simulator sim(cfg);
    Topology topo = tinyTopology();
    topo.layers[1].repetitions = 3;
    const RunResult run = sim.run(topo);
    // 1 instance of layer 0 + 3 of layer 1.
    ASSERT_EQ(run.powerTrace.size(), 4u);
    Cycle total = 0;
    for (const auto& sample : run.powerTrace) {
        EXPECT_GT(sample.powerW, 0.0);
        EXPECT_GT(sample.cycles, 0u);
        total += sample.cycles;
    }
    EXPECT_EQ(total, run.totalCycles);
    // Power varies across layers (instantaneous, not flat).
    EXPECT_NE(run.powerTrace.front().powerW,
              run.powerTrace.back().powerW);

    std::ostringstream out;
    run.writePowerReport(out);
    std::istringstream in(out.str());
    const CsvTable table = CsvTable::parse(in);
    EXPECT_EQ(table.numRows(), 5u); // 4 epochs + AVG row
}

TEST(Simulator, VectorTailSerializedAfterMatrixPart)
{
    SimConfig cfg = baseConfig();
    cfg.simdLanes = 16;
    cfg.energy.enabled = true;
    Topology with_tail;
    with_tail.name = "t";
    with_tail.layers.push_back(
        LayerSpec::gemm("g", 64, 64, 32).withTail(
            VectorTail::Softmax));
    Topology without = with_tail;
    without.layers[0].tail = VectorTail::None;

    Simulator sim_a(cfg);
    Simulator sim_b(cfg);
    const RunResult a = sim_a.run(with_tail);
    const RunResult b = sim_b.run(without);
    // Softmax over 64*64 outputs at 16 lanes, 3 passes, 1 cyc/op.
    EXPECT_EQ(a.layers[0].simdCycles, 64u * 64u / 16u * 3u);
    EXPECT_EQ(a.layers[0].totalCycles,
              b.layers[0].totalCycles + a.layers[0].simdCycles);
    // The tail costs energy too.
    EXPECT_GT(a.layers[0].actions.vectorOps, 0u);
    EXPECT_GT(a.totalEnergy.totalPj(), b.totalEnergy.totalPj());
}

TEST(Simulator, SimdKnobsScaleTailCycles)
{
    Topology topo;
    topo.name = "t";
    topo.layers.push_back(
        LayerSpec::gemm("g", 32, 32, 32).withTail(
            VectorTail::Activation));
    SimConfig wide = baseConfig();
    wide.simdLanes = 64;
    SimConfig narrow = baseConfig();
    narrow.simdLanes = 8;
    narrow.simdLatencyPerOp = 2;
    Simulator sim_w(wide);
    Simulator sim_n(narrow);
    const auto w = sim_w.run(topo);
    const auto n = sim_n.run(topo);
    EXPECT_EQ(w.layers[0].simdCycles, 32u * 32u / 64u);
    EXPECT_EQ(n.layers[0].simdCycles, 32u * 32u / 8u * 2u);
}

TEST(Simulator, SparseMetadataCostsFilterEnergy)
{
    SimConfig cfg = baseConfig();
    cfg.sparsity.enabled = true;
    cfg.energy.enabled = true;
    cfg.mode = SimMode::Analytical;
    Topology topo;
    topo.name = "t";
    LayerSpec layer = LayerSpec::gemm("g", 64, 64, 256);
    layer.sparseN = 1;
    layer.sparseM = 4;
    topo.layers.push_back(layer);
    Simulator sim(cfg);
    const RunResult run = sim.run(topo);
    ASSERT_TRUE(run.layers[0].sparse.has_value());
    // Metadata reads were added on top of the compressed filter reads.
    const systolic::FoldGrid grid(run.layers[0].effectiveGemm,
                                  cfg.dataflow, cfg.arrayRows,
                                  cfg.arrayCols);
    EXPECT_GT(run.layers[0].actions.filterSram.reads(),
              grid.sramAccessCounts().filterReads);
}

TEST(Simulator, DeeperPrefetchHidesLatency)
{
    // High-latency bandwidth memory: depth-1 prefetch exposes the
    // round trip per fold; deeper prefetch overlaps it.
    Topology topo;
    topo.name = "t";
    topo.layers.push_back(LayerSpec::gemm("g", 512, 256, 64));
    auto total_for = [&](std::uint32_t depth) {
        SimConfig cfg = baseConfig();
        cfg.memory.bandwidthWordsPerCycle = 64.0;
        cfg.memory.prefetchDepth = depth;
        Simulator sim(cfg);
        return sim.run(topo).totalCycles;
    };
    EXPECT_LE(total_for(4), total_for(1));
}

TEST(Dse, SweepCoversFullGrid)
{
    DseSweep sweep;
    sweep.arraySizes = {8, 16};
    sweep.dataflows = {Dataflow::OutputStationary,
                       Dataflow::WeightStationary};
    sweep.sramKbTotals = {256, 1024};
    sweep.base = baseConfig();
    sweep.base.mode = SimMode::Analytical;
    const auto points = runSweep(sweep, tinyTopology());
    EXPECT_EQ(points.size(), 8u);
    for (const auto& p : points) {
        EXPECT_GT(p.cycles, 0u);
        EXPECT_GT(p.energyMj, 0.0);
        EXPECT_GT(p.edp, 0.0);
    }
}

TEST(Dse, ParetoFrontierIsNonDominated)
{
    DseSweep sweep;
    sweep.arraySizes = {8, 16, 32, 64};
    sweep.base = baseConfig();
    sweep.base.mode = SimMode::Analytical;
    const auto points = runSweep(sweep, tinyTopology());
    const auto frontier = paretoFrontier(points);
    ASSERT_FALSE(frontier.empty());
    // No frontier point dominates another.
    for (const auto& a : frontier)
        for (const auto& b : frontier)
            EXPECT_FALSE(a.dominatedBy(b));
    // Every non-frontier point is dominated by some frontier point.
    for (const auto& p : points) {
        bool on_frontier = false;
        bool dominated = false;
        for (const auto& f : frontier) {
            if (f.array == p.array && f.dataflow == p.dataflow
                && f.sramKb == p.sramKb && f.cycles == p.cycles) {
                on_frontier = true;
            }
            if (p.dominatedBy(f))
                dominated = true;
        }
        EXPECT_TRUE(on_frontier || dominated);
    }
    // Extremes are on the frontier.
    EXPECT_EQ(frontier.front().cycles,
              std::ranges::min_element(points, {}, &DsePoint::cycles)
                  ->cycles);
    EXPECT_DOUBLE_EQ(
        frontier.back().energyMj,
        std::ranges::min_element(points, {}, &DsePoint::energyMj)
            ->energyMj);
}

TEST(Dse, ReportIsWellFormed)
{
    DseSweep sweep;
    sweep.arraySizes = {8, 16};
    sweep.dataflows = {Dataflow::OutputStationary};
    sweep.base = baseConfig();
    sweep.base.mode = SimMode::Analytical;
    const auto points = runSweep(sweep, tinyTopology());
    std::ostringstream out;
    writeDseReport(out, points);
    std::istringstream in(out.str());
    const CsvTable table = CsvTable::parse(in);
    EXPECT_EQ(table.numRows(), points.size());
    EXPECT_GE(table.findColumn("Pareto"), 0);
}

TEST(Simulator, Im2colAddressingKnob)
{
    Topology topo;
    topo.name = "t";
    topo.layers.push_back(LayerSpec::conv("c", 20, 20, 3, 3, 8, 16,
                                          1));
    SimConfig reuse_cfg = baseConfig();
    reuse_cfg.memory.ifmapSramKb = 1; // tiny: force refetching
    SimConfig expanded_cfg = reuse_cfg;
    expanded_cfg.memory.im2colAddressing = false;
    Simulator reuse_sim(reuse_cfg);
    Simulator expanded_sim(expanded_cfg);
    const auto reuse = reuse_sim.run(topo);
    const auto expanded = expanded_sim.run(topo);
    // Window reuse shrinks DRAM traffic; compute cycles are equal.
    EXPECT_LT(reuse.dramReadWords, expanded.dramReadWords);
    EXPECT_EQ(reuse.computeCycles, expanded.computeCycles);
}

TEST(Simulator, ValidateCatchesBadConfigs)
{
    SimConfig cfg = baseConfig();
    cfg.memory.burstWords = 0;
    EXPECT_THROW(Simulator sim(cfg), FatalError);
    cfg = baseConfig();
    cfg.dram.enabled = true;
    cfg.dram.channels = 0;
    EXPECT_THROW(Simulator sim(cfg), FatalError);
    cfg = baseConfig();
    cfg.memory.filterOffset = 0; // collides with ifmap region
    EXPECT_THROW(Simulator sim(cfg), FatalError);
    cfg = baseConfig();
    cfg.sparsity.optimizedMapping = true;
    cfg.sparsity.blockSize = 1;
    EXPECT_THROW(Simulator sim(cfg), FatalError);
    baseConfig().validate(); // the default is valid
}

TEST(Simulator, SummaryMentionsKeyStats)
{
    SimConfig cfg = baseConfig();
    cfg.energy.enabled = true;
    cfg.dram.enabled = true;
    Simulator sim(cfg);
    const RunResult run = sim.run(tinyTopology());
    std::ostringstream out;
    run.writeSummary(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("sim.totalCycles"), std::string::npos);
    EXPECT_NE(text.find("dram.rowHitRate"), std::string::npos);
    EXPECT_NE(text.find("energy.edp"), std::string::npos);
}

TEST(DseSweep, SramSplitConservesEveryKilobyte)
{
    // The sweep labels a point "N KB total" and splits it 2:1:1 across
    // ifmap/filter/ofmap. Integer division used to drop up to 3 KB on
    // totals not divisible by 4 (6 KB swept as 3+1+1 = 5 KB); the
    // remainder now lands in the ifmap share.
    for (std::uint64_t total : {4u, 5u, 6u, 7u, 64u, 1023u, 1024u}) {
        const core::SramSplit split = core::splitSramKb(total);
        EXPECT_EQ(split.ifmapKb + split.filterKb + split.ofmapKb, total)
            << total;
        EXPECT_EQ(split.filterKb, total / 4) << total;
        EXPECT_EQ(split.ofmapKb, total / 4) << total;
        EXPECT_GE(split.ifmapKb, split.filterKb) << total;
    }
    // Power-of-two totals keep the historical exact 2:1:1 split.
    const core::SramSplit kb1024 = core::splitSramKb(1024);
    EXPECT_EQ(kb1024.ifmapKb, 512u);
    EXPECT_EQ(kb1024.filterKb, 256u);
    EXPECT_EQ(kb1024.ofmapKb, 256u);
}

namespace
{

/**
 * Five layers with every kind of work a layer can bring: convs, a
 * repeated layer, a GEMM and a softmax tail. All but the last carry a
 * 2:4 annotation that only a config with sparsity on applies.
 */
Topology
pipelineTopology()
{
    Topology topo;
    topo.name = "pipeline";
    topo.layers.push_back(LayerSpec::conv("conv1", 14, 14, 3, 3, 16, 32,
                                          1));
    topo.layers.push_back(LayerSpec::conv("conv2", 12, 12, 3, 3, 32, 32,
                                          1, 2));
    topo.layers.push_back(LayerSpec::gemm("fc", 4, 64, 128));
    topo.layers.push_back(LayerSpec::gemm("qk", 24, 24, 32)
                              .withTail(VectorTail::Softmax));
    topo.layers.push_back(LayerSpec::conv("conv3", 10, 10, 1, 1, 32, 48,
                                          1));
    for (std::size_t i = 0; i + 1 < topo.layers.size(); ++i) {
        topo.layers[i].sparseN = 2;
        topo.layers[i].sparseM = 4;
    }
    return topo;
}

/**
 * An unbuffered string sink that fails one write once `budget` bytes
 * are used up, then accepts everything again. With badbit in the
 * stream's exception mask the failed write throws.
 */
class FailingBuf : public std::streambuf
{
  public:
    std::string text;
    std::size_t budget = std::numeric_limits<std::size_t>::max();

  protected:
    int_type
    overflow(int_type c) override
    {
        if (traits_type::eq_int_type(c, traits_type::eof()))
            return traits_type::not_eof(c);
        const char ch = traits_type::to_char_type(c);
        return xsputn(&ch, 1) == 1 ? c : traits_type::eof();
    }

    std::streamsize
    xsputn(const char* s, std::streamsize n) override
    {
        const auto bytes = static_cast<std::size_t>(n);
        if (bytes > budget) {
            budget = std::numeric_limits<std::size_t>::max();
            return 0;
        }
        budget -= bytes;
        text.append(s, bytes);
        return n;
    }
};

/** The five trace streams of one Simulator. */
struct TraceSinks
{
    FailingBuf bufs[5];
    std::ostream ifmap{&bufs[0]}, filter{&bufs[1]}, ofmap{&bufs[2]},
        oread{&bufs[3]}, mem{&bufs[4]};

    TraceStreams
    streams()
    {
        return {&ifmap, &filter, &ofmap, &oread, &mem};
    }

    void
    clear()
    {
        for (FailingBuf& buf : bufs)
            buf.text.clear();
        for (std::ostream* out : {&ifmap, &filter, &ofmap, &oread, &mem})
            out->clear();
    }
};

/**
 * Simulator::run without its pipeline: runLayer over every layer with
 * the run's interval sampling, then power, EdP, DRAM totals, the
 * per-layer audit and both registerStats. Run-level audit laws are
 * not repeated here.
 */
RunResult
layerLoop(Simulator& sim, const Topology& topo)
{
    const SimConfig& cfg = sim.config();
    RunResult run;
    run.runName = cfg.runName;
    run.workload = topo.name;
    obs::IntervalSampler sampler(cfg.intervalCycles);
    auto snapshot = [&] {
        obs::StatsRegistry snap;
        run.registerTotals(snap);
        sim.registerStats(snap);
        return snap;
    };
    Cycle timeline = 0;
    for (std::size_t i = 0; i < topo.layers.size(); ++i) {
        LayerResult layer = sim.runLayer(topo.layers[i], i);
        timeline += layer.timing.totalCycles
            * std::max<std::uint32_t>(1, layer.repetitions);
        run.addLayer(std::move(layer), cfg.energy.enabled);
        if (sampler.enabled())
            sampler.sample(timeline, snapshot());
    }
    if (sampler.enabled()) {
        sampler.finish(timeline, snapshot());
        run.intervals = sampler.takeSeries();
    }
    if (const energy::EnergyModel* model = sim.energyModel()) {
        run.avgPowerW = model->averagePowerW(run.totalEnergy,
                                             run.totalCycles);
        run.edp = model->edp(run.totalEnergy, run.totalCycles);
    }
    if (sim.dramMemory())
        run.dramStats = sim.dramMemory()->system().totalStats();
    if (const check::InvariantAuditor* auditor = sim.auditor()) {
        run.audited = true;
        run.audit = auditor->report();
    }
    run.registerStats(run.stats);
    sim.registerStats(run.stats);
    return run;
}

/** Every artifact of a run and its traces, minus host-time fields. */
std::map<std::string, std::string>
artifacts(const RunResult& run, const TraceSinks& traces)
{
    std::map<std::string, std::string> out;
    auto put = [&](const char* name, const auto& writer) {
        std::ostringstream text;
        writer(text);
        out[name] = text.str();
    };
    put("stats.txt", [&](std::ostream& o) { run.writeStats(o); });
    put("stats.json", [&](std::ostream& o) { run.writeStatsJson(o); });
    put("compute", [&](std::ostream& o) { run.writeComputeReport(o); });
    put("power", [&](std::ostream& o) { run.writePowerReport(o); });
    put("bandwidth",
        [&](std::ostream& o) { run.writeBandwidthReport(o); });
    put("sparse", [&](std::ostream& o) { run.writeSparseReport(o); });
    put("energy", [&](std::ostream& o) { run.writeEnergyReport(o); });
    put("intervals", [&](std::ostream& o) { run.intervals.writeCsv(o); });
    put("audit", [&](std::ostream& o) { run.audit.writeReport(o); });
    // `profile` is the report's last key; cut it and what follows.
    std::ostringstream json;
    run.writeJson(json);
    out["run.json"] = json.str().substr(0, json.str().find("\"profile\""));
    const char* trace_names[] = {"ifmap", "filter", "ofmap", "oread",
                                 "mem"};
    for (int i = 0; i < 5; ++i)
        out[trace_names[i]] = traces.bufs[i].text;
    return out;
}

void
expectSameArtifacts(const std::map<std::string, std::string>& got,
                    const std::map<std::string, std::string>& want,
                    const std::string& what)
{
    for (const auto& [name, text] : want)
        EXPECT_EQ(got.at(name), text) << what << ": " << name;
}

/** Threads of this process (0 where /proc is unavailable). */
std::size_t
threadCount()
{
    std::error_code ec;
    std::size_t n = 0;
    for (std::filesystem::directory_iterator it("/proc/self/task", ec);
         !ec && it != std::filesystem::directory_iterator(); ++it) {
        ++n;
    }
    return n;
}

} // namespace

TEST(Pipeline, RunMatchesLayerLoop)
{
    // Simulator::run overlaps each layer's demand stage with the timing
    // stage of the layer before it; everything it writes must equal a
    // fresh Simulator driven one runLayer at a time.
    struct Case
    {
        const char* name;
        std::function<void(SimConfig&)> edit;
        bool traces = false;
    };
    const std::vector<Case> cases = {
        {"energy os",
         [](SimConfig& c) {
             c.energy.enabled = true;
             c.dataflow = Dataflow::OutputStationary;
         }},
        {"energy ws", [](SimConfig& c) { c.energy.enabled = true; }},
        {"energy is",
         [](SimConfig& c) {
             c.energy.enabled = true;
             c.dataflow = Dataflow::InputStationary;
         }},
        {"layout",
         [](SimConfig& c) {
             c.layout.enabled = true;
             c.layout.banks = 4;
             c.layout.onChipBandwidth = 16;
         }},
        {"dram energy",
         [](SimConfig& c) {
             c.dram.enabled = true;
             c.energy.enabled = true;
         }},
        {"sparse ws",
         [](SimConfig& c) {
             c.sparsity.enabled = true;
             c.energy.enabled = true;
             c.layout.enabled = true;
         }},
        // Row-wise patterns are drawn from a per-layer seed.
        {"row-wise sparse",
         [](SimConfig& c) {
             c.sparsity.enabled = true;
             c.sparsity.optimizedMapping = true;
             c.energy.enabled = true;
         }},
        // Sparse OS layers skip the demand pass (and the traces).
        {"sparse os",
         [](SimConfig& c) {
             c.sparsity.enabled = true;
             c.energy.enabled = true;
             c.dataflow = Dataflow::OutputStationary;
         },
         true},
        {"traces", [](SimConfig&) {}, true},
        {"audit",
         [](SimConfig& c) {
             c.energy.enabled = true;
             c.layout.enabled = true;
             c.audit = true;
         },
         true},
        {"intervals",
         [](SimConfig& c) {
             c.energy.enabled = true;
             c.intervalCycles = 500;
         }},
        {"fold cache off",
         [](SimConfig& c) {
             c.energy.enabled = true;
             c.foldCache = false;
         }},
    };
    const Topology topo = pipelineTopology();
    const bool was_quiet = quiet();
    setQuiet(true);
    for (const Case& c : cases) {
        SimConfig cfg = baseConfig();
        c.edit(cfg);
        TraceSinks piped_traces, looped_traces;
        Simulator piped(cfg, c.traces ? piped_traces.streams()
                                      : TraceStreams{});
        const RunResult run = piped.run(topo);
        Simulator looped(cfg, c.traces ? looped_traces.streams()
                                       : TraceStreams{});
        RunResult ref = layerLoop(looped, topo);
        EXPECT_EQ(run.profile.layersProfiled, topo.layers.size())
            << c.name;
        EXPECT_GT(run.profile.cpuSeconds, 0.0) << c.name;

        if (cfg.audit) {
            // The run adds run-level laws; the per-layer ones, including
            // the energy audit the timing stage now makes, match.
            ASSERT_TRUE(run.audited);
            EXPECT_TRUE(run.audit.clean());
            for (const char* law :
                 {"spad.stallAccounting", "runtime.envelope",
                  "foldCache.replayFidelity", "energy.actionAccounting",
                  "energy.demandAgreement", "trace.agreement"}) {
                EXPECT_GT(ref.audit.checksForLaw(law), 0u) << law;
                EXPECT_EQ(run.audit.checksForLaw(law),
                          ref.audit.checksForLaw(law)) << law;
            }
            // Compared law by law above; byte for byte below.
            ref.audit = run.audit;
            ref.stats = obs::StatsRegistry();
            ref.registerStats(ref.stats);
            looped.registerStats(ref.stats);
        }
        if (cfg.intervalCycles > 0) {
            EXPECT_FALSE(run.intervals.empty()) << c.name;
        }
        const auto got = artifacts(run, piped_traces);
        if (c.traces) {
            EXPECT_FALSE(got.at("ifmap").empty()) << c.name;
            EXPECT_FALSE(got.at("mem").empty()) << c.name;
        }
        expectSameArtifacts(got, artifacts(ref, looped_traces), c.name);
    }
    setQuiet(was_quiet);
}

namespace
{

/**
 * Layers that repeat an earlier shape under another name and
 * repetition count, beside near-repeats that differ from one in a
 * single shape field (stride, tail): four of the eight are repeats.
 */
Topology
repeatedTopology()
{
    Topology topo;
    topo.name = "repeated";
    topo.layers.push_back(LayerSpec::conv("a", 14, 14, 3, 3, 16, 32, 1));
    topo.layers.push_back(LayerSpec::gemm("qk", 24, 24, 32)
                              .withTail(VectorTail::Softmax));
    topo.layers.push_back(LayerSpec::conv("a2", 14, 14, 3, 3, 16, 32, 1,
                                          3));
    topo.layers.push_back(LayerSpec::conv("s2", 14, 14, 3, 3, 16, 32, 2));
    topo.layers.push_back(LayerSpec::gemm("qk_plain", 24, 24, 32));
    topo.layers.push_back(LayerSpec::gemm("qk2", 24, 24, 32, 2)
                              .withTail(VectorTail::Softmax));
    topo.layers.push_back(LayerSpec::conv("a3", 14, 14, 3, 3, 16, 32, 1));
    topo.layers.push_back(LayerSpec::conv("s2b", 14, 14, 3, 3, 16, 32, 2));
    return topo;
}

constexpr std::uint64_t kRepeatedLayers = 4;

} // namespace

TEST(Pipeline, RepeatedShapesReuseDemand)
{
    // A repeat takes a copy of the first same-shape layer's demand;
    // everything the run writes must still equal a fresh Simulator
    // driven one runLayer at a time, which runs every demand stage.
    struct Case
    {
        const char* name;
        std::function<void(SimConfig&)> edit;
        bool traces = false;
        std::uint64_t reused = kRepeatedLayers;
    };
    const std::vector<Case> cases = {
        {"energy os",
         [](SimConfig& c) {
             c.energy.enabled = true;
             c.dataflow = Dataflow::OutputStationary;
         }},
        {"energy ws", [](SimConfig& c) { c.energy.enabled = true; }},
        {"energy is",
         [](SimConfig& c) {
             c.energy.enabled = true;
             c.dataflow = Dataflow::InputStationary;
         }},
        {"layout",
         [](SimConfig& c) {
             c.layout.enabled = true;
             c.layout.banks = 4;
             c.layout.onChipBandwidth = 16;
         }},
        {"dram energy",
         [](SimConfig& c) {
             c.dram.enabled = true;
             c.energy.enabled = true;
         }},
        {"audit",
         [](SimConfig& c) {
             c.energy.enabled = true;
             c.layout.enabled = true;
             c.audit = true;
         }},
        {"intervals",
         [](SimConfig& c) {
             c.energy.enabled = true;
             c.intervalCycles = 500;
         }},
        {"fold cache off",
         [](SimConfig& c) {
             c.energy.enabled = true;
             c.foldCache = false;
         }},
        // SRAM traces need every layer's stream.
        {"traces", [](SimConfig& c) { c.energy.enabled = true; }, true,
         0},
        // Row-wise patterns seed on the layer index.
        {"sparsity",
         [](SimConfig& c) {
             c.sparsity.enabled = true;
             c.sparsity.optimizedMapping = true;
             c.energy.enabled = true;
         },
         false, 0},
    };
    Topology topo = repeatedTopology();
    for (std::size_t i = 0; i < topo.layers.size(); ++i) {
        topo.layers[i].sparseN = 2;
        topo.layers[i].sparseM = 4;
    }
    const bool was_quiet = quiet();
    setQuiet(true);
    for (const Case& c : cases) {
        SimConfig cfg = baseConfig();
        c.edit(cfg);
        TraceSinks piped_traces, looped_traces;
        Simulator piped(cfg, c.traces ? piped_traces.streams()
                                      : TraceStreams{});
        const RunResult run = piped.run(topo);
        Simulator looped(cfg, c.traces ? looped_traces.streams()
                                       : TraceStreams{});
        RunResult ref = layerLoop(looped, topo);
        EXPECT_EQ(run.profile.layersReused, c.reused) << c.name;
        EXPECT_EQ(run.profile.layersProfiled, topo.layers.size())
            << c.name;
        if (cfg.audit) {
            // Per-layer laws match law by law; the run adds run-level
            // ones, so the reports are compared byte for byte after.
            ASSERT_TRUE(run.audited);
            EXPECT_TRUE(run.audit.clean());
            for (const char* law :
                 {"spad.stallAccounting", "runtime.envelope",
                  "foldCache.replayFidelity", "energy.actionAccounting",
                  "energy.demandAgreement"}) {
                EXPECT_GT(ref.audit.checksForLaw(law), 0u) << law;
                EXPECT_EQ(run.audit.checksForLaw(law),
                          ref.audit.checksForLaw(law)) << law;
            }
            ref.audit = run.audit;
            ref.stats = obs::StatsRegistry();
            ref.registerStats(ref.stats);
            looped.registerStats(ref.stats);
        }
        expectSameArtifacts(artifacts(run, piped_traces),
                            artifacts(ref, looped_traces), c.name);
    }

    // The memo also serves a run whose stages both run on the calling
    // thread (a parallelFor worker), and runIsolated.
    SimConfig cfg = baseConfig();
    cfg.energy.enabled = true;
    cfg.dram.enabled = true;
    Simulator looped(cfg);
    const auto want = artifacts(layerLoop(looped, topo), {});
    std::vector<RunResult> runs(2);
    parallelFor(runs.size(), 2, [&](std::uint64_t i) {
        runs[i] = Simulator(cfg).run(topo);
    });
    for (const RunResult& run : runs) {
        EXPECT_EQ(run.profile.layersReused, kRepeatedLayers);
        expectSameArtifacts(artifacts(run, {}), want, "inline");
    }
    std::vector<std::size_t> all(topo.layers.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    Simulator isolated(cfg);
    RunResult iso, fresh_run;
    isolated.runIsolated(topo, all, [&](std::size_t i, LayerResult&& got) {
        iso.addLayer(std::move(got), true);
        Simulator fresh(cfg);
        fresh_run.addLayer(fresh.runLayer(topo.layers[i], i), true);
    });
    const auto got = artifacts(iso, {});
    const auto ref = artifacts(fresh_run, {});
    for (const char* name : {"compute", "bandwidth", "energy", "power"})
        EXPECT_EQ(got.at(name), ref.at(name)) << "isolated " << name;
    EXPECT_EQ(isolated.profile().layersReused, kRepeatedLayers);
    setQuiet(was_quiet);
}

namespace
{

/**
 * One layer whose fold captures need the whole capture arena under
 * every dataflow ("big", at least twice any other layer's), small
 * layers around it and a repeat of one of them.
 */
Topology
arenaTopology()
{
    Topology topo;
    topo.name = "arena";
    topo.layers.push_back(LayerSpec::gemm("small", 24, 24, 32));
    topo.layers.push_back(LayerSpec::conv("big", 40, 40, 3, 3, 16, 32,
                                          1));
    topo.layers.push_back(LayerSpec::conv("c2", 12, 12, 3, 3, 8, 16, 1));
    topo.layers.push_back(LayerSpec::gemm("fc", 4, 64, 128));
    topo.layers.push_back(LayerSpec::gemm("qk", 24, 24, 32)
                              .withTail(VectorTail::Softmax));
    topo.layers.push_back(LayerSpec::conv("c3", 10, 10, 1, 1, 32, 48, 1));
    topo.layers.push_back(LayerSpec::conv("c2b", 12, 12, 3, 3, 8, 16, 1));
    return topo;
}

/**
 * SCALESIM_JOBS=3 while in scope, so a run starts two demand workers
 * on any host. Set and restored with no simulator thread running.
 */
class TwoDemandWorkers
{
  public:
    TwoDemandWorkers()
    {
        if (const char* old = std::getenv("SCALESIM_JOBS"))
            old_ = old;
        ::setenv("SCALESIM_JOBS", "3", 1);
    }
    ~TwoDemandWorkers()
    {
        if (old_)
            ::setenv("SCALESIM_JOBS", old_->c_str(), 1);
        else
            ::unsetenv("SCALESIM_JOBS");
    }
    TwoDemandWorkers(const TwoDemandWorkers&) = delete;
    TwoDemandWorkers& operator=(const TwoDemandWorkers&) = delete;

  private:
    std::optional<std::string> old_;
};

/** Fold-capture bytes of a dense layer's demand pass under `cfg`. */
std::size_t
layerCaptureBytes(const SimConfig& cfg, const LayerSpec& layer)
{
    systolic::DemandGenerator gen(
        layer.toGemm(), cfg.dataflow, cfg.arrayRows, cfg.arrayCols,
        systolic::OperandMap::forLayer(layer, cfg.memory));
    gen.setFoldCache(cfg.foldCache);
    return gen.captureBytes();
}

} // namespace

TEST(Pipeline, TwoWorkersMatchLayerLoop)
{
    // Two demand workers share the capture arena, which holds the big
    // layer's captures alone or two small layers' side by side; every
    // artifact must equal a fresh Simulator driven one runLayer at a
    // time.
    struct Case
    {
        const char* name;
        std::function<void(SimConfig&)> edit;
        bool memTrace = false;
    };
    const std::vector<Case> cases = {
        {"energy os",
         [](SimConfig& c) {
             c.energy.enabled = true;
             c.dataflow = Dataflow::OutputStationary;
         }},
        {"energy ws", [](SimConfig& c) { c.energy.enabled = true; }},
        {"energy is",
         [](SimConfig& c) {
             c.energy.enabled = true;
             c.dataflow = Dataflow::InputStationary;
         }},
        {"layout",
         [](SimConfig& c) {
             c.layout.enabled = true;
             c.layout.banks = 4;
             c.layout.onChipBandwidth = 16;
         }},
        {"dram energy mem trace",
         [](SimConfig& c) {
             c.dram.enabled = true;
             c.energy.enabled = true;
         },
         true},
        {"sparse ws",
         [](SimConfig& c) {
             c.sparsity.enabled = true;
             c.energy.enabled = true;
             c.layout.enabled = true;
         }},
        {"audit",
         [](SimConfig& c) {
             c.energy.enabled = true;
             c.layout.enabled = true;
             c.audit = true;
         }},
        {"intervals",
         [](SimConfig& c) {
             c.energy.enabled = true;
             c.intervalCycles = 500;
         }},
        {"fold cache off",
         [](SimConfig& c) {
             c.energy.enabled = true;
             c.foldCache = false;
         }},
    };
    Topology topo = arenaTopology();
    for (std::size_t i : {0, 2, 3}) {
        topo.layers[i].sparseN = 2;
        topo.layers[i].sparseM = 4;
    }
    const TwoDemandWorkers two;
    const bool was_quiet = quiet();
    setQuiet(true);
    for (const Case& c : cases) {
        SimConfig cfg = baseConfig();
        c.edit(cfg);
        TraceSinks piped_traces, looped_traces;
        auto streams = [&](TraceSinks& sinks) {
            TraceStreams t;
            if (c.memTrace)
                t.memory = &sinks.mem;
            return t;
        };
        Simulator piped(cfg, streams(piped_traces));
        const RunResult run = piped.run(topo);
        Simulator looped(cfg, streams(looped_traces));
        RunResult ref = layerLoop(looped, topo);
        EXPECT_EQ(run.profile.layersProfiled, topo.layers.size())
            << c.name;
        if (!cfg.sparsity.enabled) {
            // The arena is the big layer's captures, twice any other's.
            const std::size_t big = layerCaptureBytes(cfg, topo.layers[1]);
            for (const LayerSpec& layer : topo.layers) {
                if (layer.name != "big") {
                    EXPECT_LE(2 * layerCaptureBytes(cfg, layer), big)
                        << c.name << " " << layer.name;
                }
            }
            EXPECT_EQ(run.profile.captureBytes, big) << c.name;
        }
        if (cfg.audit) {
            ASSERT_TRUE(run.audited);
            EXPECT_TRUE(run.audit.clean());
            ref.audit = run.audit;
            ref.stats = obs::StatsRegistry();
            ref.registerStats(ref.stats);
            looped.registerStats(ref.stats);
        }
        const auto got = artifacts(run, piped_traces);
        if (c.memTrace) {
            EXPECT_FALSE(got.at("mem").empty()) << c.name;
        }
        expectSameArtifacts(got, artifacts(ref, looped_traces), c.name);
    }
    setQuiet(was_quiet);
}

TEST(Pipeline, CpuSecondsCoverEveryWorker)
{
    // The calling thread spins while it waits, so without the workers'
    // CPU seconds cpuSeconds would fall well short of the process's.
    SimConfig cfg = baseConfig();
    cfg.energy.enabled = true;
    cfg.dataflow = Dataflow::OutputStationary;
    const TwoDemandWorkers two;
    Simulator sim(cfg);
    Topology topo;
    for (std::uint32_t c = 8; c <= 32; c += 4) {
        topo.layers.push_back(LayerSpec::conv(
            "conv" + std::to_string(c), 64, 64, 3, 3, c, 32, 1));
    }
    const std::clock_t before = std::clock();
    const RunResult run = sim.run(topo);
    const double process = static_cast<double>(std::clock() - before)
        / CLOCKS_PER_SEC;
    EXPECT_GE(run.profile.cpuSeconds, 0.8 * process);
    EXPECT_LE(run.profile.cpuSeconds, 1.05 * process + 0.01);
}

TEST(Pipeline, ErrorJoinsWorker)
{
    // An exception in either stage mid-run stops and joins the demand
    // workers and reaches the caller, the first in layer order; the
    // object then runs like a fresh one. With SRAM traces one worker
    // runs; with only the memory trace two do, and a later layer's
    // demand stage fails while the big layer before it still runs.
    SimConfig cfg = baseConfig();
    cfg.energy.enabled = true;
    cfg.sparsity.enabled = true;
    const Topology good = pipelineTopology();
    // 5:4 is no N:M ratio: layer 3's demand stage (sparsity
    // resolution) fails.
    Topology bad_demand = good;
    bad_demand.layers[3].sparseN = 5;
    const Topology arena_good = arenaTopology();
    Topology arena_bad = arena_good;
    arena_bad.layers[2].sparseN = 5;
    arena_bad.layers[2].sparseM = 4;

    const TwoDemandWorkers two;
    const bool was_quiet = quiet();
    setQuiet(true);
    struct Case
    {
        const char* name;
        const Topology* topo;
        bool failMem;
        bool timingError; ///< which error run() must rethrow
    };
    auto check = [&](const Topology& clean, bool sram,
                     std::initializer_list<Case> cases) {
        auto streams = [&](TraceSinks& sinks) {
            TraceStreams t = sinks.streams();
            if (!sram)
                t = {nullptr, nullptr, nullptr, nullptr, t.memory};
            return t;
        };
        TraceSinks fresh_traces;
        Simulator fresh(cfg, streams(fresh_traces));
        const std::string mem_header = fresh_traces.bufs[4].text;
        const auto want = artifacts(fresh.run(clean), fresh_traces);
        ASSERT_GT(want.at("mem").size(), mem_header.size());
        // The memory trace is written by the timing stage; failing it
        // halfway fails a middle layer's timing stage.
        const std::size_t half_mem = want.at("mem").size() / 2;
        for (const Case& c : cases) {
            TraceSinks traces;
            traces.mem.exceptions(std::ios::badbit);
            Simulator sim(cfg, streams(traces));
            if (c.failMem)
                traces.bufs[4].budget = half_mem - mem_header.size();
            const std::size_t threads_before = threadCount();
            bool timing_error = false, demand_error = false;
            try {
                (void)sim.run(*c.topo);
            } catch (const std::ios_base::failure&) {
                timing_error = true;
            } catch (const FatalError& e) {
                demand_error = true;
                EXPECT_NE(std::string(e.what()).find("invalid N:M ratio"),
                          std::string::npos) << e.what();
            }
            EXPECT_EQ(timing_error, c.timingError) << c.name;
            EXPECT_EQ(demand_error, !c.timingError) << c.name;
            EXPECT_EQ(threadCount(), threads_before) << c.name;

            traces.clear();
            traces.bufs[4].text = mem_header;
            const auto again = artifacts(sim.run(clean), traces);
            expectSameArtifacts(again, want, c.name);
        }
    };
    check(good, true,
          {{"demand stage", &bad_demand, false, false},
           {"timing stage", &good, true, true},
           // Timing fails before the layer whose demand stage fails.
           {"both stages", &bad_demand, true, true}});
    check(arena_good, false,
          {{"two workers, demand stage", &arena_bad, false, false},
           {"two workers, timing stage", &arena_good, true, true},
           // The big layer's timing fails after layer 2's demand did.
           {"two workers, both stages", &arena_bad, true, true}});
    setQuiet(was_quiet);
}
