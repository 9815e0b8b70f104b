/**
 * @file
 * Sweep server and layer-result cache tests: cache-key discrimination
 * and invariance, byte-identical cached-vs-uncached evaluation, LRU
 * eviction, corruption-tolerant persistence, StatsRegistry binary
 * round-trips, the ndjson request protocol (including range checks
 * on request numbers), and concurrent request handling (run under
 * TSan in CI).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/log.hpp"
#include "common/serialize.hpp"
#include "common/workloads.hpp"
#include "core/dse.hpp"
#include "obs/json_read.hpp"
#include "obs/stats.hpp"
#include "serve/cache.hpp"
#include "serve/cached_runner.hpp"
#include "serve/server.hpp"

using namespace scalesim;
using namespace scalesim::serve;

namespace
{

Topology
smallTopology()
{
    Topology topo;
    topo.name = "serve-test";
    topo.layers.push_back(
        LayerSpec::conv("conv", 14, 14, 3, 3, 16, 32, 1));
    topo.layers.push_back(LayerSpec::gemm("fc", 4, 64, 128));
    return topo;
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

core::DseSweep
smallSweep()
{
    core::DseSweep sweep;
    sweep.base = baseConfig();
    sweep.base.energy.enabled = true;
    sweep.arraySizes = {16, 32};
    sweep.dataflows = {Dataflow::OutputStationary,
                       Dataflow::WeightStationary};
    sweep.sramKbTotals = {512};
    sweep.jobs = 1;
    return sweep;
}

std::string
dump(const obs::StatsRegistry& reg)
{
    std::ostringstream out;
    reg.dump(out);
    return out.str();
}

std::string
sweepFingerprint(const std::vector<core::DseDetailedPoint>& points)
{
    std::ostringstream out;
    for (const auto& d : points) {
        out << d.point.array << '|' << toString(d.point.dataflow)
            << '|' << d.point.sramKb << '|' << d.point.cycles << '|'
            << d.point.energyMj << '|' << d.point.edp << '\n';
        d.stats.dump(out);
    }
    return out.str();
}

std::string
tempPath(const std::string& name)
{
    return testing::TempDir() + name;
}

/** Parse a one-line server response; fails the test on bad JSON. */
obs::JsonValue
response(Server& server, const std::string& request)
{
    obs::JsonValue doc;
    EXPECT_TRUE(obs::parseJson(server.handleRequest(request), doc))
        << request;
    return doc;
}

} // namespace

// ---------------------------------------------------------------------
// Cache key: timing-relevant fields discriminate, cosmetic ones don't.

TEST(CacheKey, TimingRelevantConfigFieldsDiscriminate)
{
    const SimConfig cfg = baseConfig();
    const LayerSpec layer = smallTopology().layers[0];
    const std::uint64_t base_key = layerCacheKey(cfg, layer, 0);

    SimConfig prefetch = cfg;
    prefetch.memory.prefetchDepth = cfg.memory.prefetchDepth + 1;
    EXPECT_NE(layerCacheKey(prefetch, layer, 0), base_key);

    SimConfig dram = cfg;
    dram.dram.enabled = true;
    EXPECT_NE(layerCacheKey(dram, layer, 0), base_key);

    SimConfig array = cfg;
    array.arrayRows = 32;
    EXPECT_NE(layerCacheKey(array, layer, 0), base_key);

    SimConfig sram = cfg;
    sram.memory.ifmapSramKb *= 2;
    EXPECT_NE(layerCacheKey(sram, layer, 0), base_key);
}

TEST(CacheKey, SparsityPatternDiscriminates)
{
    SimConfig cfg = baseConfig();
    cfg.sparsity.enabled = true;
    LayerSpec layer = smallTopology().layers[0];
    layer.sparseN = 2;
    layer.sparseM = 4;
    const std::uint64_t key24 = layerCacheKey(cfg, layer, 0);

    LayerSpec other = layer;
    other.sparseN = 1;
    EXPECT_NE(layerCacheKey(cfg, other, 0), key24);

    // Sparse patterns are seeded by layer position, so the index must
    // join the key — but only when sparsity is on.
    EXPECT_NE(layerCacheKey(cfg, layer, 1), key24);
    SimConfig dense = baseConfig();
    EXPECT_EQ(layerCacheKey(dense, smallTopology().layers[0], 0),
              layerCacheKey(dense, smallTopology().layers[0], 7));
}

TEST(CacheKey, OptimizedMappingAloneDoesNotSplitByIndex)
{
    // SparseLayerModel applies no sparsity unless SparsitySupport is
    // on, so OptimizedMapping alone leaves identical layers identical.
    SimConfig cfg = baseConfig();
    cfg.sparsity.optimizedMapping = true;
    const LayerSpec layer = smallTopology().layers[0];
    EXPECT_EQ(layerCacheKey(cfg, layer, 0), layerCacheKey(cfg, layer, 7));
}

TEST(CacheKey, CosmeticConfigFieldsDoNotDiscriminate)
{
    const SimConfig cfg = baseConfig();
    const LayerSpec layer = smallTopology().layers[0];
    const std::uint64_t base_key = layerCacheKey(cfg, layer, 0);

    SimConfig named = cfg;
    named.runName = "somebody-else";
    EXPECT_EQ(layerCacheKey(named, layer, 0), base_key);

    SimConfig audited = cfg;
    audited.audit = true;
    EXPECT_EQ(layerCacheKey(audited, layer, 0), base_key);

    LayerSpec renamed = layer;
    renamed.name = "another-name";
    renamed.repetitions = 9;
    EXPECT_EQ(layerCacheKey(cfg, renamed, 0), base_key);
}

// ---------------------------------------------------------------------
// Byte-identity: cached, uncached, warm, and parallel evaluation all
// produce the same bytes.

TEST(CachedRunner, CachedSweepMatchesUncachedByteForByte)
{
    const core::DseSweep sweep = smallSweep();
    const Topology topo = workloads::resnet18Prefix(6);

    LayerResultCache cache;
    const auto cached = runSweepCachedDetailed(sweep, topo, &cache);
    const auto uncached =
        runSweepCachedDetailed(sweep, topo, nullptr);

    ASSERT_EQ(cached.size(), uncached.size());
    EXPECT_EQ(sweepFingerprint(cached), sweepFingerprint(uncached));
    EXPECT_GT(cache.stats().inserts, 0u);
}

TEST(CachedRunner, WarmSweepIsAllHitsAndIdentical)
{
    const core::DseSweep sweep = smallSweep();
    const Topology topo = workloads::resnet18Prefix(6);

    LayerResultCache cache;
    const auto cold = runSweepCachedDetailed(sweep, topo, &cache);
    const auto before = cache.stats();
    const auto warm = runSweepCachedDetailed(sweep, topo, &cache);
    const auto after = cache.stats();

    EXPECT_EQ(sweepFingerprint(cold), sweepFingerprint(warm));
    EXPECT_EQ(after.misses, before.misses) << "warm sweep missed";
    EXPECT_GT(after.hits, before.hits);
}

TEST(CachedRunner, ParallelSweepSharingOneCacheIsDeterministic)
{
    core::DseSweep sweep = smallSweep();
    const Topology topo = smallTopology();

    LayerResultCache shared;
    sweep.jobs = 4;
    const auto parallel = runSweepCachedDetailed(sweep, topo, &shared);
    sweep.jobs = 1;
    LayerResultCache fresh;
    const auto sequential = runSweepCachedDetailed(sweep, topo, &fresh);

    EXPECT_EQ(sweepFingerprint(parallel),
              sweepFingerprint(sequential));
}

TEST(CachedRunner, RunMatchesCachedRunByteForByte)
{
    SimConfig cfg = baseConfig();
    cfg.dram.enabled = true;
    cfg.energy.enabled = true;
    const Topology topo = smallTopology();

    LayerResultCache cache;
    const core::RunResult cold = runTopologyCached(cfg, topo, &cache);
    const core::RunResult warm = runTopologyCached(cfg, topo, &cache);
    const core::RunResult plain =
        runTopologyCached(cfg, topo, nullptr);

    EXPECT_EQ(dump(cold.stats), dump(plain.stats));
    EXPECT_EQ(dump(warm.stats), dump(plain.stats));
    EXPECT_EQ(warm.totalCycles, plain.totalCycles);
    EXPECT_EQ(warm.dramReadWords, plain.dramReadWords);
    EXPECT_EQ(warm.layers.size(), plain.layers.size());
    for (std::size_t i = 0; i < warm.layers.size(); ++i) {
        EXPECT_EQ(warm.layers[i].name, plain.layers[i].name);
        EXPECT_EQ(warm.layers[i].totalCycles,
                  plain.layers[i].totalCycles);
    }
}

TEST(CachedRunner, ProfileCoversEverySimulatedLayer)
{
    SimConfig cfg = baseConfig();
    cfg.energy.enabled = true;
    Topology topo = smallTopology();
    topo.layers.push_back(LayerSpec::gemm("fc2", 8, 32, 64));

    LayerResultCache cache;
    const core::RunResult cold = runTopologyCached(cfg, topo, &cache);
    EXPECT_EQ(cold.profile.layersProfiled, topo.layers.size());
    EXPECT_GT(cold.profile.totalSeconds, 0.0);
    const core::RunResult plain = runTopologyCached(cfg, topo, nullptr);
    EXPECT_EQ(plain.profile.layersProfiled, topo.layers.size());
    // A warm run simulates nothing, so it profiles nothing.
    const core::RunResult warm = runTopologyCached(cfg, topo, &cache);
    EXPECT_EQ(warm.profile.layersProfiled, 0u);
}

namespace
{

/** The run's writeJson up to `profile`, its last (host-time) key. */
std::string
jsonWithoutProfile(const core::RunResult& run)
{
    std::ostringstream out;
    run.writeJson(out);
    const std::string json = out.str();
    return json.substr(0, json.find("\"profile\""));
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

TEST(CachedRunner, RepeatedShapesMatchUncached)
{
    // ResNet-18's first layers repeat their 3x3 shapes, so a cold
    // cache serves the repeats from the first occurrence's entry.
    const Topology topo = workloads::resnet18Prefix(6);
    Topology every_other = topo;
    every_other.layers.clear();
    for (std::size_t i = 0; i < topo.layers.size(); i += 2)
        every_other.layers.push_back(topo.layers[i]);

    struct Pinned
    {
        Dataflow dataflow;
        std::uint64_t hits, misses, inserts;
    };
    for (const Pinned& p : {Pinned{Dataflow::OutputStationary, 3, 3, 3},
                            Pinned{Dataflow::WeightStationary, 3, 3, 3}}) {
        SimConfig cfg = baseConfig();
        cfg.dataflow = p.dataflow;
        cfg.energy.enabled = true;
        cfg.dram.enabled = true;
        const std::string what = toString(p.dataflow);
        const core::RunResult plain =
            runTopologyCached(cfg, topo, nullptr);

        LayerResultCache cache;
        const core::RunResult cold = runTopologyCached(cfg, topo, &cache);
        const CacheStats fresh = cache.stats();
        EXPECT_EQ(fresh.hits, p.hits) << what;
        EXPECT_EQ(fresh.misses, p.misses) << what;
        EXPECT_EQ(fresh.inserts, p.inserts) << what;
        const core::RunResult warm = runTopologyCached(cfg, topo, &cache);

        LayerResultCache half;
        (void)runTopologyCached(cfg, every_other, &half);
        const core::RunResult partial =
            runTopologyCached(cfg, topo, &half);

        // A one-byte budget refuses every entry, so each repeat misses
        // and takes its first occurrence's evaluation: only the three
        // distinct shapes are simulated.
        LayerResultCache tiny(1);
        const core::RunResult refused =
            runTopologyCached(cfg, topo, &tiny);
        EXPECT_EQ(tiny.stats().hits, 0u) << what;
        EXPECT_EQ(tiny.stats().misses, topo.layers.size()) << what;
        EXPECT_EQ(tiny.stats().entries, 0u) << what;
        EXPECT_EQ(refused.profile.layersProfiled, 3u) << what;

        // Three eighths of the fresh cache's bytes hold one entry: a
        // first occurrence is evicted before its repeat is looked up,
        // and the repeat puts it back instead of simulating it.
        LayerResultCache tight(fresh.bytes * 3 / 8);
        const core::RunResult evicted =
            runTopologyCached(cfg, topo, &tight);
        const CacheStats squeezed = tight.stats();
        EXPECT_EQ(squeezed.hits, 2u) << what;
        EXPECT_EQ(squeezed.misses, 4u) << what;
        EXPECT_EQ(squeezed.inserts, 4u) << what;
        EXPECT_EQ(squeezed.evictions, 3u) << what;
        EXPECT_EQ(squeezed.entries, 1u) << what;
        EXPECT_EQ(evicted.profile.layersProfiled, 3u) << what;

        for (const auto* run :
             {&cold, &warm, &partial, &refused, &evicted}) {
            EXPECT_EQ(dump(run->stats), dump(plain.stats)) << what;
            EXPECT_EQ(jsonWithoutProfile(*run), jsonWithoutProfile(plain))
                << what;
        }
    }
}

TEST(CachedRunner, ErrorJoinsWorker)
{
    // A layer whose demand stage fails mid-topology: the error reaches
    // the caller, the demand worker is joined, and only the layers
    // before it reach the cache.
    SimConfig cfg = baseConfig();
    cfg.energy.enabled = true;
    cfg.sparsity.enabled = true;
    Topology topo = smallTopology();
    auto bad = LayerSpec::gemm("bad", 8, 32, 64);
    // 5:4 is no N:M ratio: sparsity resolution fails.
    bad.sparseN = 5;
    bad.sparseM = 4;
    topo.layers.push_back(bad);
    topo.layers.push_back(LayerSpec::gemm("after", 16, 16, 16));

    const bool was_quiet = quiet();
    setQuiet(true);
    LayerResultCache cache;
    const std::size_t threads_before = threadCount();
    bool fatal = false;
    try {
        (void)runTopologyCached(cfg, topo, &cache);
    } catch (const FatalError& e) {
        fatal = true;
        EXPECT_NE(std::string(e.what()).find("invalid N:M ratio"),
                  std::string::npos) << e.what();
    }
    setQuiet(was_quiet);
    EXPECT_TRUE(fatal);
    EXPECT_EQ(threadCount(), threads_before);
    EXPECT_EQ(cache.stats().entries, 2u);
    EXPECT_EQ(cache.stats().inserts, 2u);
}

TEST(CachedRunner, AuditConfigBypassesCache)
{
    SimConfig cfg = baseConfig();
    cfg.audit = true;
    LayerResultCache cache;
    const core::RunResult run =
        runTopologyCached(cfg, smallTopology(), &cache);
    EXPECT_TRUE(run.audited);
    EXPECT_TRUE(run.audit.clean());
    EXPECT_EQ(cache.stats().inserts, 0u)
        << "audited runs must not populate the cache";
}

// ---------------------------------------------------------------------
// StatsRegistry binary round-trip.

TEST(StatsSerialize, RoundTripReproducesDump)
{
    obs::StatsRegistry reg;
    reg.addScalar("a.scalar", "a scalar", 1.0 / 3.0);
    reg.addVectorElem("b.vector", "x", "a vector", 2.5);
    reg.addVectorElem("b.vector", "y", "a vector", -0.125);
    obs::Histogram h;
    h.sample(1.0);
    h.sample(100.0);
    h.sample(12345.0);
    reg.addDistribution("c.dist", "a distribution", h);
    obs::FormulaSpec f;
    f.numerator = {{"a.scalar", 2.0}};
    f.denominator = {{"b.vector", 1.0}};
    reg.addFormula("d.formula", "a formula", f);

    ByteWriter out;
    reg.serialize(out);
    ByteReader in(out.buffer());
    obs::StatsRegistry copy;
    ASSERT_TRUE(copy.deserialize(in));
    EXPECT_EQ(dump(copy), dump(reg));
}

TEST(StatsSerialize, TruncatedBufferRejectedCleanly)
{
    obs::StatsRegistry reg;
    reg.addScalar("a", "a", 1.0);
    reg.addScalar("b", "b", 2.0);
    ByteWriter out;
    reg.serialize(out);

    for (std::size_t cut = 0; cut < out.size(); cut += 7) {
        ByteReader in(std::string_view(out.buffer()).substr(0, cut));
        obs::StatsRegistry copy;
        EXPECT_FALSE(copy.deserialize(in)) << "cut=" << cut;
        EXPECT_TRUE(copy.empty());
    }
}

// ---------------------------------------------------------------------
// Cache mechanics: LRU eviction and persistence.

TEST(LayerCache, EvictsLeastRecentlyUsedUnderByteBudget)
{
    const std::string payload(100, 'p');
    LayerResultCache cache(250);
    cache.insert(1, payload);
    cache.insert(2, payload);
    std::string got;
    ASSERT_TRUE(cache.lookup(1, got)); // refresh 1; 2 is now LRU
    cache.insert(3, payload);          // evicts 2

    EXPECT_TRUE(cache.lookup(1, got));
    EXPECT_FALSE(cache.lookup(2, got));
    EXPECT_TRUE(cache.lookup(3, got));
    const auto stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 2u);
    EXPECT_LE(stats.bytes, 250u);

    // An entry bigger than the whole budget is refused outright.
    cache.insert(4, std::string(1000, 'x'));
    EXPECT_FALSE(cache.lookup(4, got));
}

TEST(LayerCache, PersistenceRoundTrip)
{
    const std::string path = tempPath("cache_roundtrip.bin");
    LayerResultCache cache;
    cache.insert(10, "alpha");
    cache.insert(20, std::string("beta\0gamma", 10));
    ASSERT_TRUE(cache.save(path));

    LayerResultCache loaded;
    ASSERT_TRUE(loaded.load(path));
    EXPECT_EQ(loaded.stats().loadedEntries, 2u);
    std::string got;
    ASSERT_TRUE(loaded.lookup(10, got));
    EXPECT_EQ(got, "alpha");
    ASSERT_TRUE(loaded.lookup(20, got));
    EXPECT_EQ(got, std::string("beta\0gamma", 10));
    std::remove(path.c_str());
}

TEST(LayerCache, MissingFileIsAColdStart)
{
    LayerResultCache cache;
    EXPECT_FALSE(cache.load(tempPath("never_written.bin")));
    EXPECT_EQ(cache.stats().loadRejected, 0u);
}

TEST(LayerCache, TruncatedFileKeepsValidPrefix)
{
    const std::string path = tempPath("cache_truncated.bin");
    LayerResultCache cache;
    cache.insert(1, std::string(64, 'a'));
    cache.insert(2, std::string(64, 'b'));
    ASSERT_TRUE(cache.save(path));

    // Chop into the last entry: its checksum cannot verify.
    std::ifstream in(path, std::ios::binary);
    std::string bytes((std::istreambuf_iterator<char>(in)),
                      std::istreambuf_iterator<char>());
    in.close();
    bytes.resize(bytes.size() - 10);
    std::ofstream(path, std::ios::binary | std::ios::trunc)
        << bytes;

    LayerResultCache reloaded;
    reloaded.load(path);
    const auto stats = reloaded.stats();
    EXPECT_EQ(stats.loadedEntries, 1u);
    EXPECT_GE(stats.loadRejected, 1u);
    std::string got;
    EXPECT_TRUE(reloaded.lookup(1, got)
                || reloaded.lookup(2, got));
    std::remove(path.c_str());
}

TEST(LayerCache, CorruptPayloadRejectedByChecksum)
{
    const std::string path = tempPath("cache_corrupt.bin");
    LayerResultCache cache;
    cache.insert(1, std::string(64, 'a'));
    ASSERT_TRUE(cache.save(path));

    std::fstream f(path,
                   std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(30); // inside the payload
    f.put('Z');
    f.close();

    LayerResultCache reloaded;
    reloaded.load(path);
    EXPECT_EQ(reloaded.stats().loadedEntries, 0u);
    EXPECT_GE(reloaded.stats().loadRejected, 1u);
    std::remove(path.c_str());
}

TEST(LayerCache, GarbageHeaderRejected)
{
    const std::string path = tempPath("cache_garbage.bin");
    std::ofstream(path, std::ios::binary)
        << "this is not a cache file at all";
    LayerResultCache cache;
    EXPECT_FALSE(cache.load(path));
    EXPECT_GE(cache.stats().loadRejected, 1u);
    EXPECT_EQ(cache.stats().entries, 0u);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Request protocol.

TEST(ServerProtocol, MalformedJsonReportsError)
{
    Server server({});
    obs::JsonValue doc;
    ASSERT_TRUE(
        obs::parseJson(server.handleRequest("{nope"), doc));
    EXPECT_FALSE(doc.find("ok")->boolean);
    EXPECT_NE(doc.stringAt("error"), "");
}

TEST(ServerProtocol, UnknownTypeAndMissingWorkloadReportErrors)
{
    Server server({});
    obs::JsonValue doc =
        response(server, R"({"id": 7, "type": "frobnicate"})");
    EXPECT_FALSE(doc.find("ok")->boolean);
    EXPECT_DOUBLE_EQ(doc.numberAt("id"), 7.0);

    doc = response(server, R"({"type": "run"})");
    EXPECT_FALSE(doc.find("ok")->boolean);

    doc = response(server,
                   R"({"type": "run", "workload": "nonesuch"})");
    EXPECT_FALSE(doc.find("ok")->boolean);
}

TEST(ServerProtocol, PingStatsShutdown)
{
    Server server({});
    obs::JsonValue doc = response(server, R"({"type": "ping"})");
    EXPECT_TRUE(doc.find("ok")->boolean);

    doc = response(server, R"({"type": "stats"})");
    EXPECT_TRUE(doc.find("ok")->boolean);
    ASSERT_NE(doc.findPath("result.cache"), nullptr);

    std::istringstream in(R"({"type": "shutdown"})"
                          "\n{\"type\": \"ping\"}\n");
    std::ostringstream out;
    EXPECT_EQ(server.serve(in, out), 0);
    // One response only: shutdown stops the loop before the ping.
    const std::string transcript = out.str();
    EXPECT_EQ(
        std::count(transcript.begin(), transcript.end(), '\n'), 1);
}

TEST(ServerProtocol, InlineTopologyRunWithConfigOverlay)
{
    Server server({});
    const obs::JsonValue doc = response(server, R"({
        "id": "req-1", "type": "run",
        "config": {"architecture": {"ArrayHeight": 8,
                                    "ArrayWidth": 8}},
        "topology": {"name": "inline", "layers": [
            {"type": "gemm", "name": "g", "m": 16, "n": 16, "k": 16},
            {"type": "conv", "name": "c", "ifmapH": 8, "ifmapW": 8,
             "filterH": 3, "filterW": 3, "channels": 4,
             "numFilters": 8, "stride": 1}
        ]}})");
    ASSERT_TRUE(doc.find("ok")->boolean) << doc.stringAt("error");
    EXPECT_EQ(doc.stringAt("id"), "req-1");
    const obs::JsonValue* layers = doc.findPath("result.layers");
    ASSERT_NE(layers, nullptr);
    ASSERT_EQ(layers->items.size(), 2u);
    EXPECT_EQ(layers->items[0].stringAt("name"), "g");
    EXPECT_GT(layers->items[0].numberAt("totalCycles"), 0.0);
}

TEST(ServerProtocol, RepeatedRunsAreByteIdenticalAndWarm)
{
    Server server({});
    const std::string request =
        R"({"type": "run", "workload": "resnet18"})";
    const std::string first = server.handleRequest(request);
    const auto cold = server.cache().stats();
    const std::string second = server.handleRequest(request);
    const auto warm = server.cache().stats();

    EXPECT_EQ(first, second);
    EXPECT_EQ(warm.misses, cold.misses);
    EXPECT_GT(warm.hits, cold.hits);
}

TEST(ServerProtocol, CacheFalseBypassesCache)
{
    Server server({});
    const std::string request =
        R"({"type": "run", "workload": "resnet18", "cache": false})";
    (void)server.handleRequest(request);
    const auto stats = server.cache().stats();
    EXPECT_EQ(stats.inserts, 0u);
    EXPECT_EQ(stats.hits + stats.misses, 0u);
}

TEST(ServerProtocol, ConcurrentRequestsShareTheCacheSafely)
{
    Server server({});
    const std::string request = R"({"type": "run",
        "topology": {"name": "t", "layers": [
            {"type": "gemm", "m": 32, "n": 32, "k": 32}]}})";
    const std::string expected = server.handleRequest(request);

    std::vector<std::thread> threads;
    std::vector<std::string> results(8);
    for (std::size_t i = 0; i < results.size(); ++i) {
        threads.emplace_back([&, i] {
            for (int rep = 0; rep < 4; ++rep)
                results[i] = server.handleRequest(request);
        });
    }
    for (auto& t : threads)
        t.join();
    for (const auto& r : results)
        EXPECT_EQ(r, expected);
}

// ---------------------------------------------------------------------
// Out-of-range request numbers: rejected by name, never wrapped.

namespace
{

/** Expect `request` to fail with an error that names `field`. */
void
expectRejected(Server& server, const std::string& request,
               const std::string& field)
{
    const obs::JsonValue doc = response(server, request);
    ASSERT_NE(doc.find("ok"), nullptr) << request;
    EXPECT_FALSE(doc.find("ok")->boolean) << request;
    EXPECT_NE(doc.stringAt("error").find("'" + field + "'"),
              std::string::npos)
        << doc.stringAt("error");
}

} // namespace

TEST(ServerProtocol, NegativeArraySizeIsRejected)
{
    Server server({});
    expectRejected(server,
                   R"({"type": "sweep", "workload": "resnet18",
                       "arrays": [-32]})",
                   "arrays");
}

TEST(ServerProtocol, NegativeSramBudgetIsRejected)
{
    Server server({});
    expectRejected(server,
                   R"({"type": "sweep", "workload": "resnet18",
                       "arrays": [32], "sramKb": [-1]})",
                   "sramKb");
}

TEST(ServerProtocol, NegativeRepetitionsIsRejected)
{
    Server server({});
    expectRejected(server, R"({"type": "run", "topology": {"layers": [
        {"type": "gemm", "m": 8, "n": 8, "k": 8,
         "repetitions": -1}]}})",
                   "repetitions");
}

TEST(ServerProtocol, NegativeLayerDimensionIsRejected)
{
    Server server({});
    expectRejected(server, R"({"type": "run", "topology": {"layers": [
        {"type": "gemm", "m": 8, "n": 8, "k": -8}]}})",
                   "k");
}

TEST(ServerProtocol, FractionalAndOversizedNumbersAreRejected)
{
    Server server({});
    expectRejected(server,
                   R"({"type": "sweep", "workload": "resnet18",
                       "arrays": [32.5]})",
                   "arrays");
    expectRejected(server, R"({"type": "run", "topology": {"layers": [
        {"type": "gemm", "m": 8, "n": 8, "k": 8,
         "repetitions": 4294967296}]}})",
                   "repetitions");
    expectRejected(server, R"({"type": "run", "topology": {"layers": [
        {"type": "conv", "ifmapH": 8, "ifmapW": 8, "filterH": 3,
         "filterW": 3, "channels": 4, "numFilters": 8,
         "stride": 1e300}]}})",
                   "stride");
    expectRejected(server,
                   R"({"type": "sweep", "workload": "resnet18",
                       "arrays": [32], "jobs": -2})",
                   "jobs");
}

TEST(ServerProtocol, MisspelledOverlayKeyIsRejectedByName)
{
    Server server({});
    const obs::JsonValue doc = response(server, R"({"type": "run",
        "workload": "alexnet",
        "config": {"architecture": {"BurstWord": 16}}})");
    ASSERT_NE(doc.find("ok"), nullptr);
    EXPECT_FALSE(doc.find("ok")->boolean);
    EXPECT_NE(doc.stringAt("error").find("architecture.BurstWord: "
                                         "unknown key"),
              std::string::npos)
        << doc.stringAt("error");
}

TEST(ServerProtocol, OversizedBankSizeIsRejectedByName)
{
    Server server({});
    const obs::JsonValue doc = response(server, R"({"type": "sweep",
        "workload": "alexnet", "arrays": [32],
        "config": {"energy": {"EnergyModel": true,
                              "BankSize": 4000000000}}})");
    ASSERT_NE(doc.find("ok"), nullptr);
    EXPECT_FALSE(doc.find("ok")->boolean);
    EXPECT_NE(doc.stringAt("error").find("energy.BankSize"),
              std::string::npos)
        << doc.stringAt("error");
}

TEST(ServerProtocol, OversizedJobsIsRejectedByName)
{
    Server server({});
    const std::string tiny = R"("topology": {"layers": [
            {"type": "gemm", "m": 16, "n": 16, "k": 16}]},
        "arrays": [8], "dataflows": ["os"], "sramKb": [64])";
    expectRejected(server,
                   R"({"type": "sweep", "jobs": 100000, )" + tiny + "}",
                   "jobs");
    const obs::JsonValue doc = response(
        server, R"({"type": "sweep", "jobs": 2, )" + tiny + "}");
    ASSERT_TRUE(doc.find("ok")->boolean) << doc.stringAt("error");
    ASSERT_NE(doc.findPath("result.points"), nullptr);
    EXPECT_EQ(doc.findPath("result.points")->items.size(), 1u);
}

TEST(ServerProtocol, StatsReportsRequestLatency)
{
    Server server({});
    (void)server.handleRequest(R"({"type": "ping"})");
    (void)server.handleRequest(R"({"type": "run", "topology": {
        "layers": [{"type": "gemm", "m": 16, "n": 16, "k": 16}]}})");
    const obs::JsonValue doc = response(server, R"({"type": "stats"})");
    ASSERT_TRUE(doc.find("ok")->boolean) << doc.stringAt("error");
    const obs::JsonValue* latency = doc.findPath("result.latency");
    ASSERT_NE(latency, nullptr);
    EXPECT_DOUBLE_EQ(latency->numberAt("count"), 2.0);
    EXPECT_GT(latency->numberAt("meanS"), 0.0);
    EXPECT_GE(latency->numberAt("maxS"), latency->numberAt("meanS"));
}

TEST(ServerProtocol, ValidRequestSucceedsAfterRejectedNumbers)
{
    Server server({});
    expectRejected(server,
                   R"({"type": "sweep", "workload": "resnet18",
                       "arrays": [-32]})",
                   "arrays");
    const obs::JsonValue doc = response(server, R"({"type": "sweep",
        "topology": {"layers": [
            {"type": "gemm", "m": 16, "n": 16, "k": 16,
             "repetitions": 2}]},
        "arrays": [8, 16], "dataflows": ["os"], "sramKb": [64]})");
    ASSERT_TRUE(doc.find("ok")->boolean) << doc.stringAt("error");
    const obs::JsonValue* points = doc.findPath("result.points");
    ASSERT_NE(points, nullptr);
    ASSERT_EQ(points->items.size(), 2u);
    EXPECT_DOUBLE_EQ(points->items[0].numberAt("array"), 8.0);
    EXPECT_GT(points->items[1].numberAt("cycles"), 0.0);
}
