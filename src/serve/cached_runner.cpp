#include "serve/cached_runner.hpp"

#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"

namespace scalesim::serve
{

namespace
{

/** Bump on any change to the key schema or payload encoding. */
constexpr std::uint64_t kCacheSchemaVersion = 1;

void
mixLayer(Fnv1a& h, const LayerSpec& layer)
{
    // Canonical shape only: `name` is a display label and
    // `repetitions` scales results outside the per-instance numbers,
    // so neither may split cache entries.
    h.mix(static_cast<std::uint8_t>(layer.type));
    h.mix(layer.ifmapH);
    h.mix(layer.ifmapW);
    h.mix(layer.filterH);
    h.mix(layer.filterW);
    h.mix(layer.channels);
    h.mix(layer.numFilters);
    h.mix(layer.stride);
    h.mix(layer.gemmDims.m);
    h.mix(layer.gemmDims.n);
    h.mix(layer.gemmDims.k);
    h.mix(layer.batch);
    h.mix(layer.sparseN);
    h.mix(layer.sparseM);
    h.mix(static_cast<std::uint8_t>(layer.tail));
}

} // namespace

std::uint64_t
layerCacheKey(const SimConfig& cfg, const LayerSpec& layer,
              std::uint64_t layer_index)
{
    Fnv1a h;
    h.mix(kCacheSchemaVersion);

    // Config slice that affects one layer's timing/energy. runName,
    // audit and intervalCycles are deliberately absent: none of them
    // change an instance's numbers.
    h.mix(cfg.arrayRows);
    h.mix(cfg.arrayCols);
    h.mix(static_cast<std::uint8_t>(cfg.dataflow));
    h.mix(static_cast<std::uint8_t>(cfg.mode));
    h.mix(static_cast<std::uint8_t>(cfg.foldCache));
    h.mix(cfg.simdLanes);
    h.mix(cfg.simdLatencyPerOp);

    h.mix(cfg.memory.ifmapSramKb);
    h.mix(cfg.memory.filterSramKb);
    h.mix(cfg.memory.ofmapSramKb);
    h.mix(cfg.memory.ifmapOffset);
    h.mix(cfg.memory.filterOffset);
    h.mix(cfg.memory.ofmapOffset);
    h.mix(cfg.memory.wordBytes);
    h.mix(cfg.memory.bandwidthWordsPerCycle);
    h.mix(cfg.memory.burstWords);
    h.mix(cfg.memory.issuePerCycle);
    h.mix(cfg.memory.prefetchDepth);
    h.mix(static_cast<std::uint8_t>(cfg.memory.im2colAddressing));

    h.mix(static_cast<std::uint8_t>(cfg.sparsity.enabled));
    h.mix(static_cast<std::uint8_t>(cfg.sparsity.optimizedMapping));
    h.mix(static_cast<std::uint8_t>(cfg.sparsity.rep));
    h.mix(cfg.sparsity.blockSize);
    h.mix(cfg.sparsity.seed);

    h.mix(static_cast<std::uint8_t>(cfg.dram.enabled));
    h.mixString(cfg.dram.tech);
    h.mix(cfg.dram.channels);
    h.mix(cfg.dram.ranksPerChannel);
    h.mix(cfg.dram.readQueueSize);
    h.mix(cfg.dram.writeQueueSize);
    h.mix(cfg.dram.coreClockMhz);

    h.mix(static_cast<std::uint8_t>(cfg.layout.enabled));
    h.mix(cfg.layout.banks);
    h.mix(cfg.layout.portsPerBank);
    h.mix(cfg.layout.onChipBandwidth);

    h.mix(static_cast<std::uint8_t>(cfg.energy.enabled));
    h.mix(cfg.energy.rowSize);
    h.mix(cfg.energy.bankSize);
    h.mix(cfg.energy.frequencyGhz);
    h.mixString(cfg.energy.node);

    mixLayer(h, layer);

    // SparseLayerModel seeds its per-row N:M pattern with the layer
    // position, so under sparsity identical shapes at different
    // indices are genuinely different evaluations.
    if (cfg.sparsity.enabled || cfg.sparsity.optimizedMapping)
        h.mix(layer_index);

    return h.digest();
}

namespace
{

void
putCpi(ByteWriter& out, const obs::CpiStack& cpi)
{
    out.put(cpi.compute);
    out.put(cpi.vectorUnit);
    out.put(cpi.drain);
    out.put(cpi.bandwidth);
    out.put(cpi.prefetchMiss);
    out.put(cpi.l2Wait);
    out.put(cpi.dramQueue);
    out.put(cpi.dramService);
    out.put(cpi.refresh);
}

void
getCpi(ByteReader& in, obs::CpiStack& cpi)
{
    cpi.compute = in.get<std::uint64_t>();
    cpi.vectorUnit = in.get<std::uint64_t>();
    cpi.drain = in.get<std::uint64_t>();
    cpi.bandwidth = in.get<std::uint64_t>();
    cpi.prefetchMiss = in.get<std::uint64_t>();
    cpi.l2Wait = in.get<std::uint64_t>();
    cpi.dramQueue = in.get<std::uint64_t>();
    cpi.dramService = in.get<std::uint64_t>();
    cpi.refresh = in.get<std::uint64_t>();
}

void
putSram(ByteWriter& out, const energy::SramActionCounts& s)
{
    out.put(s.readRandom);
    out.put(s.readRepeat);
    out.put(s.writeRandom);
    out.put(s.writeRepeat);
    out.put(s.idle);
}

void
getSram(ByteReader& in, energy::SramActionCounts& s)
{
    s.readRandom = in.get<Count>();
    s.readRepeat = in.get<Count>();
    s.writeRandom = in.get<Count>();
    s.writeRepeat = in.get<Count>();
    s.idle = in.get<Count>();
}

/**
 * Encode one layer's isolated evaluation: the LayerResult (minus its
 * display name/repetitions, patched at hit time), the DRAM stats of
 * the isolated run, and the component stats registry snapshot.
 * Doubles are stored as bit patterns — the round trip is lossless, so
 * cached and freshly simulated results are bit-identical.
 */
std::string
encodeLayerPayload(const core::LayerResult& r,
                   const dram::DramStats& ds,
                   const obs::StatsRegistry& comp)
{
    ByteWriter out;
    out.put(r.denseGemm.m);
    out.put(r.denseGemm.n);
    out.put(r.denseGemm.k);
    out.put(r.effectiveGemm.m);
    out.put(r.effectiveGemm.n);
    out.put(r.effectiveGemm.k);
    out.put(r.computeCycles);
    out.put(r.simdCycles);
    out.put(r.totalCycles);
    out.put(r.stallCycles);
    out.put(r.utilization);
    out.put(r.speedup);
    out.put(r.mappingEfficiency);
    out.put(r.layoutSlowdown);
    putCpi(out, r.cpi);

    const systolic::LayerTiming& t = r.timing;
    out.put(t.computeCycles);
    out.put(t.totalCycles);
    out.put(t.stallCycles);
    out.put(t.prefetchStallCycles);
    out.put(t.drainStallCycles);
    out.put(t.bandwidthStallCycles);
    putCpi(out, t.cpi);
    out.put(t.folds);
    out.put(t.dramReadWords);
    out.put(t.dramWriteWords);
    out.put(t.dramReadRequests);
    out.put(t.dramWriteRequests);
    out.put(t.avgReadLatency);
    out.put(t.readQueueStalls);
    out.put(t.writeQueueStalls);

    out.put(static_cast<std::uint8_t>(r.sparse.has_value()));
    if (r.sparse) {
        const sparse::SparseLayerReport& s = *r.sparse;
        out.putString(s.representation);
        out.put(s.ratioN);
        out.put(s.ratioM);
        out.put(s.denseK);
        out.put(s.compressedK);
        out.put(s.originalFilterBits);
        out.put(s.newFilterBits);
        out.put(s.metadataBits);
    }

    const energy::ActionCounts& a = r.actions;
    out.put(a.macRandom);
    out.put(a.macConstant);
    out.put(a.macGated);
    out.put(a.ifmapSpadRead);
    out.put(a.ifmapSpadWrite);
    out.put(a.weightSpadRead);
    out.put(a.weightSpadWrite);
    out.put(a.psumSpadRead);
    out.put(a.psumSpadWrite);
    putSram(out, a.ifmapSram);
    putSram(out, a.filterSram);
    putSram(out, a.ofmapSram);
    out.put(a.vectorOps);
    out.put(a.dramReadWords);
    out.put(a.dramWriteWords);
    out.put(a.nocWords);
    out.put(a.cycles);

    out.put(r.energyBreakdown.peArray);
    out.put(r.energyBreakdown.glb);
    out.put(r.energyBreakdown.noc);
    out.put(r.energyBreakdown.dram);
    out.put(r.energyBreakdown.staticE);
    out.put(r.powerW);

    out.put(ds.reads);
    out.put(ds.writes);
    out.put(ds.rowHits);
    out.put(ds.rowMisses);
    out.put(ds.rowConflicts);
    out.put(ds.refreshes);
    out.put(ds.readBytes);
    out.put(ds.writeBytes);
    out.put(ds.totalReadLatency);
    out.put(ds.readQueueWait);
    out.put(ds.readRefreshWait);
    out.put(ds.readServiceTime);
    out.put(ds.firstArrival);
    out.put(ds.lastCompletion);

    comp.serialize(out);
    return out.take();
}

bool
decodeLayerPayload(const std::string& payload, core::LayerResult& r,
                   dram::DramStats& ds, obs::StatsRegistry& comp)
{
    ByteReader in(payload);
    r.denseGemm.m = in.get<std::uint64_t>();
    r.denseGemm.n = in.get<std::uint64_t>();
    r.denseGemm.k = in.get<std::uint64_t>();
    r.effectiveGemm.m = in.get<std::uint64_t>();
    r.effectiveGemm.n = in.get<std::uint64_t>();
    r.effectiveGemm.k = in.get<std::uint64_t>();
    r.computeCycles = in.get<Cycle>();
    r.simdCycles = in.get<Cycle>();
    r.totalCycles = in.get<Cycle>();
    r.stallCycles = in.get<Cycle>();
    r.utilization = in.get<double>();
    r.speedup = in.get<double>();
    r.mappingEfficiency = in.get<double>();
    r.layoutSlowdown = in.get<double>();
    getCpi(in, r.cpi);

    systolic::LayerTiming& t = r.timing;
    t.computeCycles = in.get<Cycle>();
    t.totalCycles = in.get<Cycle>();
    t.stallCycles = in.get<Cycle>();
    t.prefetchStallCycles = in.get<Cycle>();
    t.drainStallCycles = in.get<Cycle>();
    t.bandwidthStallCycles = in.get<Cycle>();
    getCpi(in, t.cpi);
    t.folds = in.get<Count>();
    t.dramReadWords = in.get<std::uint64_t>();
    t.dramWriteWords = in.get<std::uint64_t>();
    t.dramReadRequests = in.get<Count>();
    t.dramWriteRequests = in.get<Count>();
    t.avgReadLatency = in.get<double>();
    t.readQueueStalls = in.get<Cycle>();
    t.writeQueueStalls = in.get<Cycle>();

    if (in.get<std::uint8_t>() != 0) {
        sparse::SparseLayerReport s;
        s.representation = in.getString();
        s.ratioN = in.get<std::uint32_t>();
        s.ratioM = in.get<std::uint32_t>();
        s.denseK = in.get<std::uint64_t>();
        s.compressedK = in.get<std::uint64_t>();
        s.originalFilterBits = in.get<std::uint64_t>();
        s.newFilterBits = in.get<std::uint64_t>();
        s.metadataBits = in.get<std::uint64_t>();
        r.sparse = std::move(s);
    }

    energy::ActionCounts& a = r.actions;
    a.macRandom = in.get<Count>();
    a.macConstant = in.get<Count>();
    a.macGated = in.get<Count>();
    a.ifmapSpadRead = in.get<Count>();
    a.ifmapSpadWrite = in.get<Count>();
    a.weightSpadRead = in.get<Count>();
    a.weightSpadWrite = in.get<Count>();
    a.psumSpadRead = in.get<Count>();
    a.psumSpadWrite = in.get<Count>();
    getSram(in, a.ifmapSram);
    getSram(in, a.filterSram);
    getSram(in, a.ofmapSram);
    a.vectorOps = in.get<Count>();
    a.dramReadWords = in.get<Count>();
    a.dramWriteWords = in.get<Count>();
    a.nocWords = in.get<Count>();
    a.cycles = in.get<Cycle>();

    r.energyBreakdown.peArray = in.get<double>();
    r.energyBreakdown.glb = in.get<double>();
    r.energyBreakdown.noc = in.get<double>();
    r.energyBreakdown.dram = in.get<double>();
    r.energyBreakdown.staticE = in.get<double>();
    r.powerW = in.get<double>();

    ds.reads = in.get<Count>();
    ds.writes = in.get<Count>();
    ds.rowHits = in.get<Count>();
    ds.rowMisses = in.get<Count>();
    ds.rowConflicts = in.get<Count>();
    ds.refreshes = in.get<Count>();
    ds.readBytes = in.get<std::uint64_t>();
    ds.writeBytes = in.get<std::uint64_t>();
    ds.totalReadLatency = in.get<Cycle>();
    ds.readQueueWait = in.get<Cycle>();
    ds.readRefreshWait = in.get<Cycle>();
    ds.readServiceTime = in.get<Cycle>();
    ds.firstArrival = in.get<Cycle>();
    ds.lastCompletion = in.get<Cycle>();

    if (!comp.deserialize(in))
        return false;
    return in.atEnd();
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

    core::RunResult run;
    run.runName = cfg.runName;
    run.workload = topology.name;
    run.layers.reserve(topology.layers.size());

    core::Simulator sim(cfg);
    bool sim_used = false;
    SimProfile profile;
    obs::StatsRegistry comp_accum;

    for (std::size_t i = 0; i < topology.layers.size(); ++i) {
        const LayerSpec& spec = topology.layers[i];
        const std::uint64_t key = layerCacheKey(cfg, spec, i);

        core::LayerResult layer;
        dram::DramStats layer_dram;
        obs::StatsRegistry comp;
        bool decoded = false;
        std::string payload;
        if (cache && cache->lookup(key, payload)) {
            decoded =
                decodeLayerPayload(payload, layer, layer_dram, comp);
            if (!decoded) {
                // A payload that decodes badly (stale schema, bit rot
                // that beat the checksum) degrades to a miss.
                warn("cache payload for key %016llx undecodable, "
                     "re-simulating",
                     static_cast<unsigned long long>(key));
                layer = core::LayerResult{};
                layer_dram = dram::DramStats{};
                comp.clear();
            }
        }
        if (!decoded) {
            // Isolated evaluation: reset before (not after) each
            // simulated layer, so results are position-independent and
            // the cache key needs no run-history component.
            if (sim_used) {
                // reset() also clears the profiler: bank the previous
                // layer's share first.
                profile.merge(sim.profile());
                sim.reset();
            }
            sim_used = true;
            layer = sim.runLayer(spec, i);
            if (sim.dramMemory())
                layer_dram = sim.dramMemory()->system().totalStats();
            sim.registerStats(comp);
            if (cache)
                cache->insert(key,
                              encodeLayerPayload(layer, layer_dram, comp));
        }
        // Display name and repetition count are excluded from the
        // cache key; patch them from the request's layer spec.
        layer.name = spec.name;
        layer.repetitions = spec.repetitions;
        if (layer.sparse)
            layer.sparse->layerName = spec.name;

        // Counts sum; the arrival/completion envelope spans the
        // layer-local clocks, so it is indicative only here.
        if (cfg.dram.enabled)
            run.dramStats.merge(layer_dram);
        run.addLayer(std::move(layer), cfg.energy.enabled);
        comp_accum.merge(comp);
    }

    if (const energy::EnergyModel* model = sim.energyModel()) {
        run.avgPowerW = model->averagePowerW(run.totalEnergy,
                                             run.totalCycles);
        run.edp = model->edp(run.totalEnergy, run.totalCycles);
    }
    if (sim_used) {
        profile.merge(sim.profile());
        run.profile = profile;
    }
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
