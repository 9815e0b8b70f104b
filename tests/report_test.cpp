/**
 * @file
 * Golden/smoke tests for the run reports and machine-readable outputs:
 * text report rendering, the stats registry populated by a real run
 * (including the DRAM row-outcome and scratchpad stall-breakdown sum
 * invariants), writeJson round-trips, Chrome-trace structure, and
 * degenerate runs (empty topology, DRAM off) never printing nan/inf.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "common/workloads.hpp"
#include "core/simulator.hpp"

#include "json_check.hpp"

using namespace scalesim;

namespace
{

Topology
tinyTopology()
{
    Topology topo;
    topo.name = "tiny";
    topo.layers.push_back(LayerSpec::conv("conv", 14, 14, 3, 3, 8, 16,
                                          1));
    topo.layers.push_back(LayerSpec::gemm("fc", 4, 32, 64));
    return topo;
}

SimConfig
fullConfig()
{
    SimConfig cfg;
    cfg.arrayRows = cfg.arrayCols = 8;
    cfg.memory.ifmapSramKb = 16;
    cfg.memory.filterSramKb = 16;
    cfg.memory.ofmapSramKb = 8;
    cfg.dram.enabled = true;
    cfg.energy.enabled = true;
    cfg.sparsity.enabled = true;
    return cfg;
}

core::RunResult
runFull(bool fold_spans = false)
{
    SimConfig cfg = fullConfig();
    cfg.memory.recordFoldSpans = fold_spans;
    core::Simulator sim(cfg);
    return sim.run(tinyTopology());
}

std::string
render(const core::RunResult& run,
       void (core::RunResult::*writer)(std::ostream&) const)
{
    std::ostringstream out;
    (run.*writer)(out);
    return out.str();
}

void
expectNoNanInf(const std::string& text, const char* what)
{
    EXPECT_EQ(text.find("nan"), std::string::npos) << what;
    EXPECT_EQ(text.find("-nan"), std::string::npos) << what;
    EXPECT_EQ(text.find("inf"), std::string::npos) << what;
}

} // namespace

TEST(Reports, SummaryContainsHeadlineStats)
{
    const core::RunResult run = runFull();
    const std::string text = render(run,
                                    &core::RunResult::writeSummary);
    EXPECT_NE(text.find("sim.totalCycles"), std::string::npos);
    EXPECT_NE(text.find("sim.stallFraction"), std::string::npos);
    EXPECT_NE(text.find("mem.dramReadWords"), std::string::npos);
    EXPECT_NE(text.find("dram.rowHitRate"), std::string::npos);
    EXPECT_NE(text.find("energy.total_mJ"), std::string::npos);
    EXPECT_NE(text.find(std::to_string(run.totalCycles)),
              std::string::npos);
}

TEST(Reports, ComputeReportHasOneRowPerLayer)
{
    const core::RunResult run = runFull();
    const std::string text = render(
        run, &core::RunResult::writeComputeReport);
    EXPECT_EQ(text.rfind("LayerID,LayerName,", 0), 0u);
    std::size_t lines = 0;
    for (char c : text)
        lines += c == '\n';
    EXPECT_EQ(lines, run.layers.size() + 1); // header + one per layer
    EXPECT_NE(text.find("conv"), std::string::npos);
    EXPECT_NE(text.find("fc"), std::string::npos);
}

TEST(Reports, StatsDumpHasGem5FramingAndParsesAsJson)
{
    const core::RunResult run = runFull();
    const std::string text = render(run, &core::RunResult::writeStats);
    EXPECT_NE(text.find("Begin Simulation Statistics"),
              std::string::npos);
    EXPECT_NE(text.find("End Simulation Statistics"),
              std::string::npos);
    EXPECT_NE(text.find("sim.totalCycles"), std::string::npos);
    EXPECT_NE(text.find("dram.ch0."), std::string::npos);
    EXPECT_NE(text.find("spad.stallBreakdown::drain"),
              std::string::npos);
    expectNoNanInf(text, "stats.txt");

    const std::string json_text = render(
        run, &core::RunResult::writeStatsJson);
    jsoncheck::Value doc;
    ASSERT_TRUE(jsoncheck::valid(json_text, doc));
    const jsoncheck::Value* cycles = doc.find("sim.totalCycles");
    ASSERT_NE(cycles, nullptr);
    EXPECT_DOUBLE_EQ(cycles->find("value")->number,
                     static_cast<double>(run.totalCycles));
}

TEST(Reports, DramRowOutcomesSumToRequests)
{
    const core::RunResult run = runFull();
    const auto& reg = run.stats;
    const double outcomes = reg.scalarValue("dram.rowHits")
        + reg.scalarValue("dram.rowMisses")
        + reg.scalarValue("dram.rowConflicts");
    const double requests = reg.scalarValue("dram.reads")
        + reg.scalarValue("dram.writes");
    EXPECT_GT(requests, 0.0);
    EXPECT_DOUBLE_EQ(outcomes, requests);
    // Per-channel bank vectors agree with the channel totals.
    EXPECT_DOUBLE_EQ(reg.evaluate("dram.ch0.bank.rowHits"),
                     reg.scalarValue("dram.ch0.rowHits"));
}

TEST(Reports, ScratchpadStallBreakdownSumsToStallCycles)
{
    const core::RunResult run = runFull();
    const auto& reg = run.stats;
    EXPECT_DOUBLE_EQ(reg.evaluate("spad.stallBreakdown"),
                     reg.scalarValue("spad.stallCycles"));
    // The same invariant holds per layer.
    for (const auto& l : run.layers) {
        EXPECT_EQ(l.timing.prefetchStallCycles
                      + l.timing.drainStallCycles
                      + l.timing.bandwidthStallCycles,
                  l.stallCycles)
            << l.name;
    }
}

TEST(Reports, WriteJsonParsesAndRoundTripsTotals)
{
    const core::RunResult run = runFull();
    const std::string text = render(run, &core::RunResult::writeJson);
    jsoncheck::Value doc;
    ASSERT_TRUE(jsoncheck::valid(text, doc));

    const jsoncheck::Value* totals = doc.find("totals");
    ASSERT_NE(totals, nullptr);
    EXPECT_DOUBLE_EQ(totals->find("totalCycles")->number,
                     static_cast<double>(run.totalCycles));
    EXPECT_DOUBLE_EQ(totals->find("stallCycles")->number,
                     static_cast<double>(run.stallCycles));
    EXPECT_DOUBLE_EQ(totals->find("dramReadWords")->number,
                     static_cast<double>(run.dramReadWords));

    const jsoncheck::Value* layers = doc.find("layers");
    ASSERT_NE(layers, nullptr);
    ASSERT_EQ(layers->items.size(), run.layers.size());
    EXPECT_EQ(layers->items[0].find("name")->text,
              run.layers[0].name);
    EXPECT_DOUBLE_EQ(
        layers->items[0].find("totalCycles")->number,
        static_cast<double>(run.layers[0].totalCycles));

    ASSERT_NE(doc.find("dram"), nullptr);
    EXPECT_TRUE(doc.find("dram")->find("modeled")->boolean);
    ASSERT_NE(doc.find("energy"), nullptr);
    ASSERT_NE(doc.find("profile"), nullptr);
    ASSERT_NE(doc.find("profile")->find("cpuSeconds"), nullptr);
    EXPECT_GT(doc.find("profile")->find("cpuSeconds")->number, 0.0);
}

TEST(Reports, ChromeTraceHasSpansPerLayerAndCounterTrack)
{
    const core::RunResult run = runFull(/*fold_spans=*/true);
    const std::string text = render(
        run, &core::RunResult::writeChromeTrace);
    jsoncheck::Value doc;
    ASSERT_TRUE(jsoncheck::valid(text, doc));

    const jsoncheck::Value* events = doc.find("traceEvents");
    ASSERT_NE(events, nullptr);
    std::size_t layer_spans = 0, fold_spans = 0, counters = 0;
    for (const auto& ev : events->items) {
        const jsoncheck::Value* ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        if (ph->text == "X") {
            const jsoncheck::Value* cat = ev.find("cat");
            ASSERT_NE(cat, nullptr);
            layer_spans += cat->text == "layer";
            fold_spans += cat->text == "fold";
            EXPECT_GE(ev.find("dur")->number, 1.0);
        } else if (ph->text == "C") {
            ++counters;
        }
    }
    EXPECT_EQ(layer_spans, run.layers.size());
    EXPECT_GT(fold_spans, 0u);
    EXPECT_GT(counters, 0u);
}

TEST(Reports, DegenerateEmptyTopologyPrintsNoNan)
{
    SimConfig cfg;
    cfg.energy.enabled = true;
    core::Simulator sim(cfg);
    Topology empty;
    empty.name = "empty";
    const core::RunResult run = sim.run(empty);
    EXPECT_EQ(run.totalCycles, 0u);

    expectNoNanInf(render(run, &core::RunResult::writeSummary),
                   "summary");
    expectNoNanInf(render(run, &core::RunResult::writePowerReport),
                   "power");
    expectNoNanInf(render(run, &core::RunResult::writeBandwidthReport),
                   "bandwidth");
    expectNoNanInf(render(run, &core::RunResult::writeStats), "stats");

    const std::string json_text = render(run,
                                         &core::RunResult::writeJson);
    expectNoNanInf(json_text, "json");
    jsoncheck::Value doc;
    ASSERT_TRUE(jsoncheck::valid(json_text, doc));
    EXPECT_DOUBLE_EQ(doc.find("totals")->find("stallFraction")->number,
                     0.0);

    const std::string trace_text = render(
        run, &core::RunResult::writeChromeTrace);
    jsoncheck::Value trace_doc;
    ASSERT_TRUE(jsoncheck::valid(trace_text, trace_doc));
}

TEST(Reports, DegenerateTinyLayerNoDramPrintsNoNan)
{
    SimConfig cfg;
    cfg.mode = SimMode::Analytical;
    Topology topo;
    topo.name = "one";
    topo.layers.push_back(LayerSpec::gemm("g1", 1, 1, 1));
    core::Simulator sim(cfg);
    const core::RunResult run = sim.run(topo);
    expectNoNanInf(render(run, &core::RunResult::writeSummary),
                   "summary");
    expectNoNanInf(render(run, &core::RunResult::writeComputeReport),
                   "compute");
    const std::string json_text = render(run,
                                         &core::RunResult::writeJson);
    expectNoNanInf(json_text, "json");
    jsoncheck::Value doc;
    ASSERT_TRUE(jsoncheck::valid(json_text, doc));
}
