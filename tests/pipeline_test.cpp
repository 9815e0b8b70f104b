/**
 * @file
 * Golden digests of the run pipeline's outputs. The other run tests
 * compare two evaluations of the same pipeline (cached against
 * uncached, sequential against parallel), so a slip that hits both
 * sides alike (a wrong power-sample count, energy scaled wrongly per
 * repetition) passes them. These pin FNV-1a digests of the stats
 * dumps, text reports and sweep reports of a small topology that
 * exercises energy, the DRAM model, 2:4 sparsity, a vector tail and a
 * repeated layer, for both run semantics (coupled Simulator::run and
 * the layer-isolated runTopologyCached) and both sweep drivers.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "core/dse.hpp"
#include "serve/cached_runner.hpp"

using namespace scalesim;

namespace
{

Topology
goldenTopology()
{
    Topology topo;
    topo.name = "pipeline-golden";
    topo.layers.push_back(
        LayerSpec::conv("conv", 10, 10, 3, 3, 8, 16, 1));
    auto sparse = LayerSpec::gemm("sparse_fc", 16, 24, 32);
    sparse.sparseN = 2;
    sparse.sparseM = 4;
    sparse.repetitions = 3;
    topo.layers.push_back(sparse);
    auto attn = LayerSpec::gemm("attn", 12, 12, 16);
    attn.tail = VectorTail::Softmax;
    topo.layers.push_back(attn);
    return topo;
}

SimConfig
goldenConfig()
{
    SimConfig cfg;
    cfg.arrayRows = 8;
    cfg.arrayCols = 8;
    cfg.dataflow = Dataflow::WeightStationary;
    cfg.mode = SimMode::Trace;
    cfg.energy.enabled = true;
    cfg.dram.enabled = true;
    cfg.sparsity.enabled = true;
    return cfg;
}

core::DseSweep
goldenSweep()
{
    core::DseSweep sweep;
    sweep.base = goldenConfig();
    sweep.arraySizes = {8, 16};
    sweep.dataflows = {Dataflow::OutputStationary,
                       Dataflow::WeightStationary};
    sweep.sramKbTotals = {64};
    sweep.jobs = 1;
    return sweep;
}

std::uint64_t
digest(const std::string& text)
{
    return Fnv1a::of(text.data(), text.size());
}

template <typename Writer>
std::uint64_t
digestOf(Writer write)
{
    std::ostringstream out;
    write(out);
    return digest(out.str());
}

/** Digests of one run's stats dump and COMPUTE/ENERGY/POWER reports. */
struct RunDigests
{
    std::uint64_t stats;
    std::uint64_t compute;
    std::uint64_t energy;
    std::uint64_t power;
    std::size_t powerSamples;
};

RunDigests
digestRun(const core::RunResult& run)
{
    return {
        digestOf([&](std::ostream& o) { run.writeStats(o); }),
        digestOf([&](std::ostream& o) { run.writeComputeReport(o); }),
        digestOf([&](std::ostream& o) { run.writeEnergyReport(o); }),
        digestOf([&](std::ostream& o) { run.writePowerReport(o); }),
        run.powerTrace.size(),
    };
}

/** Digests of a sweep's merged stats dump and its DSE CSV report. */
std::pair<std::uint64_t, std::uint64_t>
digestSweep(const std::vector<core::DseDetailedPoint>& detailed)
{
    std::vector<core::DsePoint> points;
    for (const auto& d : detailed)
        points.push_back(d.point);
    return {
        digestOf([&](std::ostream& o) {
            core::mergeSweepStats(detailed).dump(o);
        }),
        digestOf([&](std::ostream& o) {
            core::writeDseReport(o, points);
        }),
    };
}

} // namespace

TEST(PipelineGolden, CoupledRun)
{
    core::Simulator sim(goldenConfig());
    const RunDigests d = digestRun(sim.run(goldenTopology()));
    EXPECT_EQ(d.stats, 0xe5963a4207bfb62bull);
    EXPECT_EQ(d.compute, 0xee0676bd80949439ull);
    EXPECT_EQ(d.energy, 0x071f5f8f06f3ecc0ull);
    EXPECT_EQ(d.power, 0x795673da6f9ac2d9ull);
    // One power sample per layer instance: 1 + 3 + 1.
    EXPECT_EQ(d.powerSamples, 5u);
}

TEST(PipelineGolden, IsolatedRun)
{
    const RunDigests d = digestRun(
        serve::runTopologyCached(goldenConfig(), goldenTopology(),
                                 nullptr));
    EXPECT_EQ(d.stats, 0xc18f2141afb7a861ull);
    EXPECT_EQ(d.compute, 0xc307133404cbe3e4ull);
    EXPECT_EQ(d.energy, 0x435d6ae03732f468ull);
    EXPECT_EQ(d.power, 0xaba9c3af2498fcedull);
    EXPECT_EQ(d.powerSamples, 5u);
}

TEST(PipelineGolden, CoupledRunIntervalSeries)
{
    SimConfig cfg = goldenConfig();
    cfg.intervalCycles = 500;
    core::Simulator sim(cfg);
    const core::RunResult run = sim.run(goldenTopology());
    EXPECT_EQ(run.intervals.rows.size(), 3u);
    EXPECT_EQ(digestOf([&](std::ostream& o) {
                  run.intervals.writeStatsText(o);
              }),
              0xb6730d808dc9517aull);
}

TEST(PipelineGolden, CoupledSweep)
{
    const auto [stats, report] =
        digestSweep(core::runSweepDetailed(goldenSweep(),
                                           goldenTopology()));
    EXPECT_EQ(stats, 0xcf2fc0ce567064c8ull);
    EXPECT_EQ(report, 0x1ee41c0f3478bd53ull);
}

TEST(PipelineGolden, CachedSweep)
{
    serve::LayerResultCache cache;
    const auto [stats, report] = digestSweep(
        serve::runSweepCachedDetailed(goldenSweep(), goldenTopology(),
                                      &cache));
    EXPECT_EQ(stats, 0xbe400d72a19d92d1ull);
    EXPECT_EQ(report, 0x5ef91c696f19c649ull);
}
