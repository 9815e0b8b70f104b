/**
 * @file
 * Knob reach: every row of the SimConfig field table (forEachField)
 * must reach the paths it claims. For each payload row, one step of
 * its value changes the single-core stats digest and the serve cache
 * key, and either changes the multi-core stats digest or is named by
 * multiCoreIgnoredFeatures. Rows outside the payload change neither
 * the digest nor the key.
 */

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/config.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "core/simulator.hpp"
#include "multicore/trace_sim.hpp"
#include "serve/cached_runner.hpp"

using namespace scalesim;

namespace
{

/** Every feature on, sized so that each knob moves some number. */
SimConfig
baseConfig()
{
    SimConfig cfg;
    cfg.arrayRows = 8;
    cfg.arrayCols = 8;
    cfg.memory.ifmapSramKb = 1;
    cfg.memory.filterSramKb = 1;
    cfg.memory.ofmapSramKb = 1;
    cfg.memory.wordBytes = 4;
    cfg.memory.bandwidthWordsPerCycle = 4.0;
    cfg.memory.burstWords = 4;
    cfg.dram.enabled = true;
    cfg.dram.readQueueSize = 4;
    cfg.dram.writeQueueSize = 4;
    cfg.layout.enabled = true;
    cfg.layout.banks = 4;
    cfg.layout.onChipBandwidth = 16;
    cfg.energy.enabled = true;
    cfg.energy.rowSize = 4;
    cfg.energy.bankSize = 1;
    cfg.sparsity.enabled = true;
    cfg.sparsity.optimizedMapping = true;
    return cfg;
}

/** A conv, a GEMM, a 2:4 layer and a layer with a vector tail. */
Topology
topology()
{
    Topology topo;
    topo.name = "reach";
    topo.layers.push_back(LayerSpec::conv("conv", 12, 12, 3, 3, 8, 16, 1));
    topo.layers.push_back(LayerSpec::gemm("gemm", 40, 24, 36));
    LayerSpec sparse = LayerSpec::gemm("sparse", 32, 16, 64);
    sparse.sparseN = 2;
    sparse.sparseM = 4;
    topo.layers.push_back(sparse);
    LayerSpec tail = LayerSpec::gemm("tail", 24, 32, 16);
    tail.tail = VectorTail::Softmax;
    topo.layers.push_back(tail);
    return topo;
}

/** What one configuration produces on every path a row can reach. */
struct Probe
{
    std::vector<std::string> stats; ///< single-core stats dump lines
    std::uint64_t multiCore = 0; ///< multi-core stats dump digest
    std::vector<std::uint64_t> keys; ///< cache key of every layer
    std::vector<std::string> ignored; ///< multiCoreIgnoredFeatures
};

Probe
probe(const SimConfig& cfg)
{
    cfg.validate();
    const Topology topo = topology();
    Probe p;
    std::ostringstream single;
    core::Simulator(cfg).run(topo).stats.dump(single);
    std::istringstream in(single.str());
    for (std::string line; std::getline(in, line);)
        p.stats.push_back(line);

    multicore::MultiCoreTraceSimulator mc(
        multicore::multiCoreTraceConfig(cfg, 2, 2));
    obs::StatsRegistry reg;
    for (std::size_t i = 0; i < topo.layers.size(); ++i) {
        mc.runLayer(topo.layers[i])
            .registerStats(reg, "mc.l" + std::to_string(i));
        p.keys.push_back(serve::layerCacheKey(cfg, topo.layers[i], i));
    }
    std::ostringstream multi;
    reg.dump(multi);
    p.multiCore = Fnv1a::of(multi.str().data(), multi.str().size());
    p.ignored = systolic::multiCoreIgnoredFeatures(cfg);
    return p;
}

/** The stats lines outside `skip` (a name prefix). */
std::vector<std::string>
statsOutside(const Probe& p, const std::string& skip)
{
    std::vector<std::string> kept;
    for (const std::string& line : p.stats) {
        if (line.compare(0, skip.size(), skip) != 0)
            kept.push_back(line);
    }
    return kept;
}

/** The model's numbers: everything but the audit's own report,
    which only Audit adds. */
std::vector<std::string>
modelStats(const Probe& p)
{
    return statsOutside(p, "sim.audit.");
}

void step(const char*, bool& v) { v = !v; }
void step(const char*, std::uint32_t& v) { ++v; }
void step(const char*, std::uint64_t& v) { ++v; }
void step(const char*, double& v) { v += 1.0; }

void
step(const char* key, std::string& v)
{
    const std::string k = key;
    v = k == "Tech" ? "HBM2" : k == "Node" ? "45nm" : v + "_other";
}

void
step(const char*, Dataflow& v)
{
    v = v == Dataflow::OutputStationary ? Dataflow::WeightStationary
                                        : Dataflow::OutputStationary;
}

void
step(const char*, SimMode& v)
{
    v = v == SimMode::Trace ? SimMode::Analytical : SimMode::Trace;
}

void
step(const char*, SparseRep& v)
{
    v = v == SparseRep::Csr ? SparseRep::Csc : SparseRep::Csr;
}

struct Row
{
    std::string name; ///< "section.key"
    std::string ignoredName; ///< "[section] key"
    unsigned flags;
};

std::vector<Row>
rows()
{
    std::vector<Row> out;
    const SimConfig cfg;
    forEachField(cfg, [&](const auto& f) {
        out.push_back({std::string(f.section) + "." + f.key,
                       std::string("[") + f.section + "] " + f.key,
                       f.flags});
    });
    return out;
}

/** `base` with row `target` of the field table stepped once. */
SimConfig
stepped(const SimConfig& base, std::size_t target)
{
    SimConfig cfg = base;
    std::size_t row = 0;
    forEachField(cfg, [&](const auto& f) {
        if (row++ == target)
            step(f.key, f.value);
    });
    return cfg;
}

bool
contains(const std::vector<std::string>& names, const std::string& name)
{
    return std::find(names.begin(), names.end(), name) != names.end();
}

} // namespace

// One step of each payload row moves the cache key, the single-core
// stats and either the multi-core stats or the ignore list. A row
// can only move numbers where its feature does something, so each row
// is stepped from two bases: everything on with the OS dataflow, and
// WS with DramModel off. Under OS the ofmap never spills, so only WS
// shows OfmapSramSzkB/OfmapOffset in the multi-core numbers; under WS
// filter tiles are never re-read, so only OS shows FilterSramSzkB;
// Bandwidth is the main-memory model only while DramModel is off.
//
// Im2colAddressing is the one row whose default the multi-core path
// does not follow: it always addresses ifmaps im2col-expanded, as
// Im2colAddressing = false does. The row is therefore not marked
// kMultiCore, and the checks below hold it to that: stepping it leaves
// the multi-core numbers unchanged and puts it on the ignore list.
// Following the default there would move the pinned multi-core
// digests, so it waits for the multi-core run to move into the
// library.
TEST(ConfigReach, EveryRowReachesItsPaths)
{
    setQuiet(true); // the layout model warns about the sparse layer
    SimConfig ws = baseConfig();
    ws.dataflow = Dataflow::WeightStationary;
    ws.dram.enabled = false;
    const std::vector<SimConfig> bases = {baseConfig(), ws};
    std::vector<Probe> base_probes;
    for (const SimConfig& base : bases)
        base_probes.push_back(probe(base));

    const std::vector<Row> table = rows();
    for (std::size_t i = 0; i < table.size(); ++i) {
        const Row& row = table[i];
        SCOPED_TRACE(row.name);
        bool stats_moved = false;
        bool mc_moved = false;
        bool named = false;
        for (std::size_t b = 0; b < bases.size(); ++b) {
            const Probe& before = base_probes[b];
            const Probe after = probe(stepped(bases[b], i));
            const bool model_moved = modelStats(after) != modelStats(before);
            stats_moved = stats_moved || model_moved;
            mc_moved = mc_moved || after.multiCore != before.multiCore;
            named = named || contains(before.ignored, row.ignoredName)
                || contains(after.ignored, row.ignoredName);
            if (!(row.flags & kPayload)) {
                EXPECT_FALSE(model_moved);
                EXPECT_EQ(after.keys, before.keys);
                continue;
            }
            for (std::size_t l = 0; l < after.keys.size(); ++l)
                EXPECT_NE(after.keys[l], before.keys[l]) << "layer " << l;
            if (!(row.flags & kMultiCore)) {
                EXPECT_EQ(after.multiCore, before.multiCore);
            }
            if (row.name == "architecture.FoldCache") {
                // Same numbers; only the cache's own counters move.
                EXPECT_EQ(statsOutside(after, "sim.foldCache."),
                          statsOutside(before, "sim.foldCache."));
            }
        }
        if (!(row.flags & kPayload))
            continue;
        EXPECT_TRUE(stats_moved);
        if (row.flags & kMultiCore) {
            EXPECT_TRUE(mc_moved);
        } else {
            EXPECT_TRUE(named);
        }
    }
}
