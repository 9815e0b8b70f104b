#include "serve/cached_runner.hpp"

#include <optional>
#include <tuple>
#include <type_traits>
#include <unordered_map>

#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"

namespace scalesim::serve
{

namespace
{

/** Bump on any change to the key schema or payload encoding. */
constexpr std::uint64_t kCacheSchemaVersion = 2;

void
mixLayer(Fnv1a& h, const LayerSpec& layer)
{
    // The canonical shape, without the display name and repetition
    // count (see shapeFields); enums hash as one byte.
    std::apply(
        [&](const auto&... fields) {
            const auto mix = [&](const auto& field) {
                if constexpr (std::is_enum_v<
                                  std::decay_t<decltype(field)>>)
                    h.mix(static_cast<std::uint8_t>(field));
                else
                    h.mix(field);
            };
            (mix(fields), ...);
        },
        layer.shapeFields());
}

} // namespace

std::uint64_t
layerCacheKey(const SimConfig& cfg, const LayerSpec& layer,
              std::uint64_t layer_index)
{
    Fnv1a h;
    h.mix(kCacheSchemaVersion);

    // Every payload row of the SimConfig field table, in table order.
    forEachField(cfg, [&](const auto& f) {
        if (f.has(kPayload))
            mixField(h, f.value);
    });

    mixLayer(h, layer);

    // SparseLayerModel seeds its per-row N:M pattern with the layer
    // position, so under sparsity identical shapes at different
    // indices are genuinely different evaluations.
    if (cfg.sparsity.enabled)
        h.mix(layer_index);

    return h.digest();
}

namespace
{

/** Call `visit` on each of `fields` in order. */
template <class Visit, class... Fields>
void
each(Visit& visit, Fields&... fields)
{
    (visit(fields), ...);
}

/**
 * Visit, in wire order, every field the payload stores for one layer's
 * isolated evaluation: the LayerResult (minus its display
 * name/repetitions, patched at hit time) and the DRAM stats of the
 * isolated run. `sparse()` runs where the optional sparse report goes.
 * Encoder and decoder both walk this one list, so they cannot drift.
 */
template <class Result, class Dram, class Visit, class Sparse>
void
payloadFields(Result& r, Dram& ds, Visit&& v, Sparse&& sparse)
{
    const auto cpi = [&](auto& c) {
        each(v, c.compute, c.vectorUnit, c.drain, c.bandwidth,
             c.prefetchMiss, c.l2Wait, c.dramQueue, c.dramService,
             c.refresh);
    };
    const auto sram = [&](auto& s) {
        each(v, s.readRandom, s.readRepeat, s.writeRandom, s.writeRepeat,
             s.idle);
    };
    each(v, r.denseGemm.m, r.denseGemm.n, r.denseGemm.k,
         r.effectiveGemm.m, r.effectiveGemm.n, r.effectiveGemm.k,
         r.computeCycles, r.simdCycles, r.totalCycles, r.stallCycles,
         r.utilization, r.speedup, r.mappingEfficiency, r.layoutSlowdown);
    cpi(r.cpi);

    auto& t = r.timing;
    each(v, t.computeCycles, t.totalCycles, t.stallCycles,
         t.prefetchStallCycles, t.drainStallCycles,
         t.bandwidthStallCycles);
    cpi(t.cpi);
    each(v, t.folds, t.dramReadWords, t.dramWriteWords,
         t.dramReadRequests, t.dramWriteRequests, t.avgReadLatency,
         t.readQueueStalls, t.writeQueueStalls);

    sparse();

    auto& a = r.actions;
    each(v, a.macRandom, a.macConstant, a.macGated, a.ifmapSpadRead,
         a.ifmapSpadWrite, a.weightSpadRead, a.weightSpadWrite,
         a.psumSpadRead, a.psumSpadWrite);
    sram(a.ifmapSram);
    sram(a.filterSram);
    sram(a.ofmapSram);
    each(v, a.vectorOps, a.dramReadWords, a.dramWriteWords, a.nocWords,
         a.cycles);

    auto& e = r.energyBreakdown;
    each(v, e.peArray, e.glb, e.noc, e.dram, e.staticE, r.powerW);

    each(v, ds.reads, ds.writes, ds.rowHits, ds.rowMisses,
         ds.rowConflicts, ds.refreshes, ds.readBytes, ds.writeBytes,
         ds.totalReadLatency, ds.readQueueWait, ds.readRefreshWait,
         ds.readServiceTime, ds.firstArrival, ds.lastCompletion);
}

template <class Report, class Visit>
void
sparseFields(Report& s, Visit& v)
{
    each(v, s.representation, s.ratioN, s.ratioM, s.denseK,
         s.compressedK, s.originalFilterBits, s.newFilterBits,
         s.metadataBits);
}

/**
 * Encode one layer's evaluation plus the component stats registry
 * snapshot. Doubles are stored as bit patterns — the round trip is
 * lossless, so cached and freshly simulated results are bit-identical.
 */
std::string
encodeLayerPayload(const core::LayerResult& r,
                   const dram::DramStats& ds,
                   const obs::StatsRegistry& comp)
{
    ByteWriter out;
    const auto put = [&](const auto& field) {
        if constexpr (std::is_same_v<std::decay_t<decltype(field)>,
                                     std::string>)
            out.putString(field);
        else
            out.put(field);
    };
    payloadFields(r, ds, put, [&] {
        out.put(static_cast<std::uint8_t>(r.sparse.has_value()));
        if (r.sparse)
            sparseFields(*r.sparse, put);
    });
    comp.serialize(out);
    return out.take();
}

bool
decodeLayerPayload(const std::string& payload, core::LayerResult& r,
                   dram::DramStats& ds, obs::StatsRegistry& comp)
{
    ByteReader in(payload);
    const auto get = [&](auto& field) {
        using T = std::decay_t<decltype(field)>;
        if constexpr (std::is_same_v<T, std::string>)
            field = in.getString();
        else
            field = in.get<T>();
    };
    payloadFields(r, ds, get, [&] {
        if (in.get<std::uint8_t>() != 0) {
            sparse::SparseLayerReport s;
            sparseFields(s, get);
            r.sparse = std::move(s);
        }
    });
    if (!comp.deserialize(in))
        return false;
    return in.atEnd();
}

/**
 * One layer's isolated evaluation: its result, the DRAM stats of its
 * isolated run and its component stats snapshot.
 */
struct LayerEvaluation
{
    core::LayerResult layer;
    dram::DramStats dram;
    obs::StatsRegistry comp;
};

/** The cached evaluation under `key`; empty on a miss. */
std::optional<LayerEvaluation>
lookup(LayerResultCache& cache, std::uint64_t key)
{
    std::string payload;
    if (!cache.lookup(key, payload))
        return std::nullopt;
    LayerEvaluation e;
    if (decodeLayerPayload(payload, e.layer, e.dram, e.comp))
        return e;
    // A payload that decodes badly (stale schema, bit rot that beat
    // the checksum) degrades to a miss.
    warn("cache payload for key %016llx undecodable, re-simulating",
         static_cast<unsigned long long>(key));
    return std::nullopt;
}

} // namespace

core::RunResult
runTopologyCached(const SimConfig& cfg, const Topology& topology,
                  LayerResultCache* cache)
{
    // Audit, interval sampling, and fold spans need a live simulation
    // of every layer (and, for run-level audits, the coupled run());
    // serving them from cache would silently drop their outputs.
    // Those configs take the standard Simulator::run path untouched.
    const bool cacheable = !cfg.audit && cfg.intervalCycles == 0
        && !cfg.memory.recordFoldSpans;
    if (!cacheable) {
        core::Simulator coupled(cfg);
        return coupled.run(topology);
    }

    // Plan: look up the first occurrence of each key in layer order.
    // Misses go to the simulate list. A repeat takes the evaluation of
    // its key's first occurrence, which by the key's contract has the
    // same bytes.
    const std::size_t n = topology.layers.size();
    std::vector<std::uint64_t> keys(n);
    std::vector<std::size_t> source(n);
    std::vector<std::optional<LayerEvaluation>> evaluated(n);
    std::vector<std::size_t> simulate;
    std::unordered_map<std::uint64_t, std::size_t> first;
    for (std::size_t i = 0; i < n; ++i) {
        keys[i] = layerCacheKey(cfg, topology.layers[i], i);
        source[i] = i;
        if (cache) {
            const auto [it, is_first] = first.emplace(keys[i], i);
            if (!is_first) {
                source[i] = it->second;
                continue;
            }
            evaluated[i] = lookup(*cache, keys[i]);
        }
        if (!evaluated[i])
            simulate.push_back(i);
    }

    // Simulate the misses through the two-stage pipeline. runIsolated
    // runs each layer on freshly built components, so results are
    // position-independent and the cache key needs no run-history
    // component.
    core::Simulator sim(cfg);
    sim.runIsolated(topology, simulate,
                    [&](std::size_t i, core::LayerResult&& layer) {
        LayerEvaluation e{std::move(layer), {}, {}};
        if (sim.dramMemory())
            e.dram = sim.dramMemory()->system().totalStats();
        sim.registerStats(e.comp);
        if (cache)
            cache->insert(keys[i],
                          encodeLayerPayload(e.layer, e.dram, e.comp));
        evaluated[i] = std::move(e);
    });

    core::RunResult run;
    run.runName = cfg.runName;
    run.workload = topology.name;
    run.layers.reserve(n);
    obs::StatsRegistry comp_accum;
    for (std::size_t i = 0; i < n; ++i) {
        const LayerEvaluation& e = *evaluated[source[i]];
        if (source[i] != i) {
            // A repeat is still looked up, to count its hit and refresh
            // its entry. An entry that a byte budget evicted since is
            // put back, not re-simulated.
            if (!cache->touch(keys[i]))
                cache->insert(keys[i],
                              encodeLayerPayload(e.layer, e.dram, e.comp));
        }
        // Display name and repetition count are excluded from the
        // cache key; patch them from the request's layer spec.
        const LayerSpec& spec = topology.layers[i];
        core::LayerResult layer = e.layer;
        layer.name = spec.name;
        layer.repetitions = spec.repetitions;
        if (layer.sparse)
            layer.sparse->layerName = spec.name;

        // Counts sum; the arrival/completion envelope spans the
        // layer-local clocks, so it is indicative only here.
        if (cfg.dram.enabled)
            run.dramStats.merge(e.dram);
        run.addLayer(std::move(layer), cfg.energy.enabled);
        comp_accum.merge(e.comp);
    }

    if (const energy::EnergyModel* model = sim.energyModel()) {
        run.avgPowerW = model->averagePowerW(run.totalEnergy,
                                             run.totalCycles);
        run.edp = model->edp(run.totalEnergy, run.totalCycles);
    }
    if (!simulate.empty())
        run.profile = sim.profile();
    run.registerStats(run.stats);
    // The merged per-layer component snapshots stand in for the
    // coupled run's Simulator::registerStats call; the name spaces
    // (dram.*, spad.*, mem.*, sim.foldCache.*) are disjoint from the
    // run-derived stats, and merging in layer order keeps dumps
    // byte-identical however each layer was obtained.
    run.stats.merge(comp_accum);
    return run;
}

std::vector<core::DseDetailedPoint>
runSweepCachedDetailed(const core::DseSweep& sweep,
                       const Topology& topology, LayerResultCache* cache)
{
    // Workers share only the cache, which is internally locked (its
    // methods are SIM_EXCLUDES-annotated, see cache.hpp).
    return core::runSweepDetailed(sweep, [&](const SimConfig& cfg) {
        return runTopologyCached(cfg, topology, cache);
    });
}

} // namespace scalesim::serve
