#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <istream>
#include <limits>
#include <ostream>
#include <sstream>

#include "common/log.hpp"
#include "common/workloads.hpp"
#include "obs/json.hpp"
#include "obs/json_read.hpp"
#include "serve/cached_runner.hpp"

namespace scalesim::serve
{

namespace
{

/** Render a JSON scalar as an INI value string. */
std::string
iniValue(const obs::JsonValue& v)
{
    switch (v.kind) {
      case obs::JsonValue::Kind::String:
        return v.text;
      case obs::JsonValue::Kind::Bool:
        return v.boolean ? "true" : "false";
      case obs::JsonValue::Kind::Number:
        if (std::floor(v.number) == v.number
            && std::abs(v.number) < 1e15) {
            return format("%.0f", v.number);
        }
        return format("%.17g", v.number);
      default:
        throw std::runtime_error(
            "config values must be strings, numbers, or booleans");
    }
}

/**
 * A request number as an unsigned field of type T. Converting a
 * negative or out-of-range double with static_cast is undefined (in
 * practice it wraps), so anything that is not a finite integer T can
 * hold is rejected with an error naming `field`.
 */
template <typename T>
T
checkedUnsigned(double value, const std::string& field)
{
    // 2^digits is exact in a double and is the first value T cannot
    // hold; comparing against max() would round it up to 2^64 for
    // 64-bit T.
    const double limit =
        std::ldexp(1.0, std::numeric_limits<T>::digits);
    if (!std::isfinite(value) || std::floor(value) != value
        || value < 0.0 || value >= limit) {
        throw std::runtime_error(
            "'" + field + "' must be an integer in [0, "
            + std::to_string(std::numeric_limits<T>::max()) + "], got "
            + format("%.17g", value));
    }
    return static_cast<T>(value);
}

/** checkedUnsigned of member `key` of `v`, `fallback` when absent. */
template <typename T>
T
unsignedAt(const obs::JsonValue& v, const std::string& key,
           double fallback = 0.0)
{
    return checkedUnsigned<T>(v.numberAt(key, fallback), key);
}

/** Base config + request {section: {key: value}} overlay. */
SimConfig
configFromRequest(const IniFile& base, const obs::JsonValue& req)
{
    IniFile ini = base;
    if (const obs::JsonValue* overlay = req.find("config")) {
        if (overlay->kind != obs::JsonValue::Kind::Object)
            throw std::runtime_error("'config' must be an object");
        for (const auto& [section, keys] : overlay->members) {
            if (keys.kind != obs::JsonValue::Kind::Object) {
                throw std::runtime_error(
                    "config section '" + section
                    + "' must be an object");
            }
            for (const auto& [key, value] : keys.members)
                ini.set(section, key, iniValue(value));
        }
    }
    return SimConfig::fromIni(ini);
}

LayerSpec
layerFromJson(const obs::JsonValue& v, std::size_t index)
{
    if (v.kind != obs::JsonValue::Kind::Object)
        throw std::runtime_error("each layer must be an object");
    const std::string type = v.stringAt("type", "conv");
    LayerSpec layer;
    if (type == "gemm") {
        layer = LayerSpec::gemm(
            v.stringAt("name", "layer" + std::to_string(index)),
            unsignedAt<std::uint64_t>(v, "m"),
            unsignedAt<std::uint64_t>(v, "n"),
            unsignedAt<std::uint64_t>(v, "k"));
    } else if (type == "conv") {
        layer = LayerSpec::conv(
            v.stringAt("name", "layer" + std::to_string(index)),
            unsignedAt<std::uint64_t>(v, "ifmapH"),
            unsignedAt<std::uint64_t>(v, "ifmapW"),
            unsignedAt<std::uint64_t>(v, "filterH"),
            unsignedAt<std::uint64_t>(v, "filterW"),
            unsignedAt<std::uint64_t>(v, "channels"),
            unsignedAt<std::uint64_t>(v, "numFilters"),
            unsignedAt<std::uint64_t>(v, "stride", 1.0));
    } else {
        throw std::runtime_error("unknown layer type '" + type + "'");
    }
    layer.repetitions =
        unsignedAt<std::uint32_t>(v, "repetitions", 1.0);
    layer.batch = unsignedAt<std::uint64_t>(v, "batch", 1.0);
    layer.sparseN = unsignedAt<std::uint32_t>(v, "sparseN");
    layer.sparseM = unsignedAt<std::uint32_t>(v, "sparseM");
    const std::string tail = v.stringAt("tail");
    if (!tail.empty())
        layer.tail = vectorTailFromString(tail);
    return layer;
}

/** "workload": built-in name, or "topology": inline layer list. */
Topology
topologyFromRequest(const obs::JsonValue& req)
{
    if (const obs::JsonValue* inline_topo = req.find("topology")) {
        if (inline_topo->kind != obs::JsonValue::Kind::Object)
            throw std::runtime_error("'topology' must be an object");
        Topology topo;
        topo.name = inline_topo->stringAt("name", "inline");
        const obs::JsonValue* layers = inline_topo->find("layers");
        if (!layers || layers->kind != obs::JsonValue::Kind::Array
            || layers->items.empty()) {
            throw std::runtime_error(
                "'topology.layers' must be a non-empty array");
        }
        for (std::size_t i = 0; i < layers->items.size(); ++i)
            topo.layers.push_back(layerFromJson(layers->items[i], i));
        return topo;
    }
    const std::string workload = req.stringAt("workload");
    if (workload.empty()) {
        throw std::runtime_error(
            "request needs 'workload' or 'topology'");
    }
    return workloads::byName(workload);
}

/** Echo the request's "id" member, whatever scalar kind it was. */
void
writeId(obs::JsonWriter& json, const obs::JsonValue* id)
{
    if (!id)
        return;
    json.key("id");
    switch (id->kind) {
      case obs::JsonValue::Kind::Number:
        json.value(id->number);
        break;
      case obs::JsonValue::Kind::String:
        json.value(id->text);
        break;
      case obs::JsonValue::Kind::Bool:
        json.value(id->boolean);
        break;
      default:
        json.null();
        break;
    }
}

void
writeFlatStats(obs::JsonWriter& json, const obs::StatsRegistry& stats)
{
    json.key("stats").beginObject();
    for (const auto& [name, value] : stats.flatten())
        json.field(name, value);
    json.endObject();
}

/**
 * Run/sweep result writers. Deliberately free of cache counters and
 * wall-clock self-profiling: identical requests must yield
 * byte-identical response lines whether served cold or warm.
 */
void
writeRunResult(obs::JsonWriter& json, const core::RunResult& run)
{
    json.field("workload", run.workload);
    json.key("totals").beginObject();
    json.field("totalCycles", run.totalCycles);
    json.field("computeCycles", run.computeCycles);
    json.field("stallCycles", run.stallCycles);
    json.field("dramReadWords", run.dramReadWords);
    json.field("dramWriteWords", run.dramWriteWords);
    json.endObject();
    if (run.totalEnergy.totalPj() > 0.0) {
        json.key("energy").beginObject();
        json.field("total_mJ", run.totalEnergy.totalMj());
        json.field("onChip_mJ", run.totalEnergy.onChipMj());
        json.field("avgPower_W", run.avgPowerW);
        json.field("edp", run.edp);
        json.endObject();
    }
    json.key("layers").beginArray();
    for (const auto& l : run.layers) {
        json.beginObject();
        json.field("name", l.name);
        json.field("repetitions", l.repetitions);
        json.field("computeCycles", l.computeCycles);
        json.field("simdCycles", l.simdCycles);
        json.field("totalCycles", l.totalCycles);
        json.field("stallCycles", l.stallCycles);
        json.field("utilization", l.utilization);
        json.endObject();
    }
    json.endArray();
    writeFlatStats(json, run.stats);
}

void
writeSweepResult(obs::JsonWriter& json,
                 const std::vector<core::DseDetailedPoint>& detailed)
{
    std::vector<core::DsePoint> points;
    points.reserve(detailed.size());
    for (const auto& d : detailed)
        points.push_back(d.point);
    const std::vector<bool> pareto = core::onParetoFrontier(points);
    json.key("points").beginArray();
    for (std::size_t i = 0; i < points.size(); ++i) {
        const core::DsePoint& p = points[i];
        json.beginObject();
        json.field("array", p.array);
        json.field("dataflow", toString(p.dataflow));
        json.field("sramKb", p.sramKb);
        json.field("cycles", p.cycles);
        json.field("energy_mJ", p.energyMj);
        json.field("edp", p.edp);
        json.field("pareto", pareto[i]);
        json.endObject();
    }
    json.endArray();
    writeFlatStats(json, core::mergeSweepStats(detailed));
}

} // namespace

Server::Server(Options options)
    : options_(std::move(options)),
      cache_(options_.cacheBudgetBytes)
{
    if (!options_.cacheFile.empty())
        cache_.load(options_.cacheFile);
}

bool
Server::saveCache() const
{
    if (options_.cacheFile.empty())
        return false;
    return cache_.save(options_.cacheFile);
}

std::string
Server::handleRequest(const std::string& line)
{
    const auto start = std::chrono::steady_clock::now();
    std::string response = respond(line);
    const double seconds = std::chrono::duration<double>(
        std::chrono::steady_clock::now() - start).count();
    MutexLock lock(latencyMutex_);
    ++latency_.count;
    latency_.totalS += seconds;
    latency_.maxS = std::max(latency_.maxS, seconds);
    return response;
}

std::string
Server::respond(const std::string& line)
{
    ++requests_;
    std::ostringstream out;
    obs::JsonWriter json(out, /*pretty=*/false);

    obs::JsonValue req;
    if (!obs::parseJson(line, req)
        || req.kind != obs::JsonValue::Kind::Object) {
        ++errors_;
        json.beginObject();
        json.field("ok", false);
        json.field("error", "malformed JSON request");
        json.endObject();
        return out.str();
    }

    const obs::JsonValue* id = req.find("id");
    const std::string type = req.stringAt("type");
    try {
        json.beginObject();
        writeId(json, id);
        if (type == "ping") {
            json.field("ok", true);
            json.key("result").beginObject();
            json.field("pong", true);
            json.endObject();
        } else if (type == "stats") {
            const CacheStats snap = cache_.stats();
            json.field("ok", true);
            json.key("result").beginObject();
            json.field("requests",
                       static_cast<std::uint64_t>(requests_.load()));
            json.field("errors",
                       static_cast<std::uint64_t>(errors_.load()));
            json.key("cache").beginObject();
            json.field("hits", snap.hits);
            json.field("misses", snap.misses);
            json.field("hitRate", snap.hitRate());
            json.field("inserts", snap.inserts);
            json.field("evictions", snap.evictions);
            json.field("loadedEntries", snap.loadedEntries);
            json.field("loadRejected", snap.loadRejected);
            json.field("bytes", snap.bytes);
            json.field("entries", snap.entries);
            json.endObject();
            Latency latency;
            {
                MutexLock lock(latencyMutex_);
                latency = latency_;
            }
            const double count = static_cast<double>(latency.count);
            json.key("latency").beginObject();
            json.field("count", latency.count);
            json.field("meanS", count > 0 ? latency.totalS / count : 0.0);
            json.field("maxS", latency.maxS);
            json.endObject();
            json.endObject();
        } else if (type == "shutdown") {
            shutdown_.store(true);
            json.field("ok", true);
            json.key("result").beginObject();
            json.field("shutdown", true);
            json.endObject();
        } else if (type == "run") {
            const SimConfig cfg =
                configFromRequest(options_.baseConfig, req);
            const Topology topo = topologyFromRequest(req);
            const bool use_cache = req.find("cache") == nullptr
                || req.find("cache")->boolean;
            json.field("ok", true);
            json.key("result").beginObject();
            if (options_.dryRun) {
                json.field("dryRun", true);
                json.field("workload", topo.name);
                json.field("layers", static_cast<std::uint64_t>(
                                         topo.layers.size()));
            } else {
                const core::RunResult run = runTopologyCached(
                    cfg, topo, use_cache ? &cache_ : nullptr);
                writeRunResult(json, run);
            }
            json.endObject();
        } else if (type == "sweep") {
            core::DseSweep sweep;
            sweep.base = configFromRequest(options_.baseConfig, req);
            // Axes may sit at the top level or under a "sweep" object.
            const obs::JsonValue* nested = req.find("sweep");
            const obs::JsonValue& axes = nested ? *nested : req;
            sweep.jobs = unsignedAt<unsigned>(
                axes, "jobs",
                req.numberAt(
                    "jobs", static_cast<double>(options_.defaultJobs)));
            if (sweep.jobs > kMaxSweepJobs) {
                throw std::runtime_error(
                    "'jobs' must be at most "
                    + std::to_string(kMaxSweepJobs) + ", got "
                    + std::to_string(sweep.jobs));
            }
            if (const obs::JsonValue* arrays = axes.find("arrays")) {
                sweep.arraySizes.clear();
                for (const auto& a : arrays->items) {
                    sweep.arraySizes.push_back(
                        checkedUnsigned<std::uint32_t>(a.number,
                                                       "arrays"));
                }
            }
            if (const obs::JsonValue* dfs = axes.find("dataflows")) {
                sweep.dataflows.clear();
                for (const auto& d : dfs->items)
                    sweep.dataflows.push_back(dataflowFromString(d.text));
            }
            if (const obs::JsonValue* srams = axes.find("sramKb")) {
                sweep.sramKbTotals.clear();
                for (const auto& s : srams->items) {
                    sweep.sramKbTotals.push_back(
                        checkedUnsigned<std::uint64_t>(s.number,
                                                       "sramKb"));
                }
            }
            const Topology topo = topologyFromRequest(req);
            const bool use_cache = req.find("cache") == nullptr
                || req.find("cache")->boolean;
            json.field("ok", true);
            json.key("result").beginObject();
            if (options_.dryRun) {
                json.field("dryRun", true);
                json.field("workload", topo.name);
                json.field(
                    "candidates",
                    static_cast<std::uint64_t>(
                        sweep.arraySizes.size()
                        * sweep.dataflows.size()
                        * sweep.sramKbTotals.size()));
            } else {
                const auto detailed = runSweepCachedDetailed(
                    sweep, topo, use_cache ? &cache_ : nullptr);
                writeSweepResult(json, detailed);
            }
            json.endObject();
        } else {
            throw std::runtime_error(
                type.empty() ? "request has no 'type'"
                             : "unknown request type '" + type + "'");
        }
        json.endObject();
        return out.str();
    } catch (const std::exception& e) {
        ++errors_;
        // The writer may hold a half-built document; start over.
        std::ostringstream err;
        obs::JsonWriter ejson(err, /*pretty=*/false);
        ejson.beginObject();
        writeId(ejson, id);
        ejson.field("ok", false);
        ejson.field("error", e.what());
        ejson.endObject();
        return err.str();
    }
}

int
Server::serve(std::istream& in, std::ostream& out)
{
    std::string line;
    while (!shutdown_.load() && std::getline(in, line)) {
        if (line.empty())
            continue;
        out << handleRequest(line) << '\n' << std::flush;
    }
    if (!options_.cacheFile.empty() && !saveCache())
        warn("failed to persist cache to %s",
             options_.cacheFile.c_str());
    return 0;
}

} // namespace scalesim::serve
