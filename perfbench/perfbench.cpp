/**
 * @file
 * Host-time benchmark of whole SCALE-Sim v3 runs. One process runs one
 * workload:
 *
 *  1. Set-up (topology, validated config, Simulator / multi-core
 *     simulator / sweep server) is repeated and timed: `setup_s`.
 *  2. Whole simulations (or sweep requests) are timed with tracing off
 *     for `--seconds`: `run_s`. A fixed calibration loop runs right
 *     before and after every call, and the call's wall time is rescaled
 *     to the host speed at which that loop takes kCalibrationRefSeconds,
 *     so a shared host's changing speed cancels out; `run_s` is the
 *     median rescaled call. Every timed call's simulated outputs are
 *     hashed outside the timed interval and compared with the digest
 *     pinned for the workload; a mismatch, an exception or a warm sweep
 *     response that differs from the cold one is a failed operation.
 *  3. With `--trace 1`, one traced run times the calls into each
 *     module's public functions from here (one span per call, per
 *     network layer and per design point), reconciles the spans with
 *     the simulator's own phase counters, and one audited run checks
 *     the conservation laws. Only per-layer metrics are printed then.
 *
 * The last stdout line is one JSON object: correct, attempted, failed
 * and the metrics. README.md in this directory maps every metric to
 * the layer it measures; run.py builds this program and drives it.
 *
 *   perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
 *             [--trace-out PATH] [--quick] [--perturb]
 *
 * `--quick` runs the workload's code path on the first two ResNet-18
 * layers and checks against a reference run made in-process instead of
 * the pinned digest. `--perturb` changes BurstWords in the timed
 * configuration, so every digest check must fail.
 *
 * Simulated results are checked, never scored: the model is not
 * validated against hardware here, and no accuracy figure is given.
 */

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <numeric>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "check/audit.hpp"
#include "common/config.hpp"
#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/profiler.hpp"
#include "common/workloads.hpp"
#include "core/dse.hpp"
#include "core/simulator.hpp"
#include "multicore/trace_sim.hpp"
#include "obs/json_read.hpp"
#include "obs/trace.hpp"
#include "serve/cached_runner.hpp"
#include "serve/server.hpp"
#include "systolic/demand.hpp"

using namespace scalesim;

namespace
{

using Clock = std::chrono::steady_clock;

/** Per-layer metrics printed with --trace 1, in print order. */
constexpr std::pair<const char*, const char*> kLayerMetrics[] = {
    {"core.runLayer_s", "s"},
    {"core.slowest_layer_s", "s"},
    {"core.outside_layers_s", "s"},
    {"core.feature_overhead_x", "x"},
    {"obs.report_s", "s"},
    {"systolic.demand_s", "s"},
    {"systolic.demandgen_s", "s"},
    {"systolic.addrs", "count"},
    {"systolic.ns_per_addr", "ns"},
    {"systolic.fold_replay_ratio", "ratio"},
    {"systolic.scratchpad_s", "s"},
    {"energy.count_s", "s"},
    {"energy.estimate_s", "s"},
    {"layout.eval_s", "s"},
    {"dram.timing_s", "s"},
    {"dram.requests", "count"},
    {"dram.ns_per_request", "ns"},
    {"multicore.runLayer_s", "s"},
    {"multicore.slowest_layer_s", "s"},
    {"multicore.grants", "count"},
    {"multicore.ns_per_grant", "ns"},
    {"serve.cold_point_s", "s"},
    {"serve.warm_point_s", "s"},
    {"serve.warm_hit_rate", "ratio"},
    {"serve.warm_req_s", "s"},
    {"serve.cache_bytes", "bytes"},
    {"host.cpu_s", "s"},
    {"host.cores_used", "x"},
    {"host.trace_overhead_x", "x"},
    {"check.audit_s", "s"},
    {"check.fail_rate", "ratio"},
    {"check.iterations", "count"},
};

/** Timed calls per run: at least this many, however short --seconds. */
constexpr std::size_t kMinCalls = 3;
/**
 * Set-up is timed in slices of back-to-back repeats: one slice before
 * the first call (at least kMinSetups repeats) and one before every
 * later call, each of which gets fresh state. setup_s, the median of
 * the slice medians, so samples the whole run and not one moment of a
 * shared machine. A slice ends after kSliceSeconds or kSliceReps
 * repeats.
 */
constexpr std::size_t kMinSetups = 3;
constexpr std::size_t kSliceReps = 1000;
constexpr double kSliceSeconds = 0.02;
/** Feature-off reference runs behind core.feature_overhead_x. */
constexpr int kPlainRuns = 3;
/**
 * Seconds calibrationSeconds() takes on a quiet 4-core x86-64 host
 * (the fastest of several hundred runs). run_s rescales every call to
 * this host speed.
 */
constexpr double kCalibrationRefSeconds = 0.012;

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

double
cpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec)
        + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * Seconds of a fixed loop owned by the benchmark, not by the simulator:
 * dependent loads from a 32 KiB table chained through integer hashing.
 * Its time tracks how fast the shared host runs at the moment, so a
 * call's wall time over the loop's time around it is the host-speed-free
 * cost of the call. Code under test cannot change it.
 */
double
calibrationSeconds()
{
    constexpr std::size_t kWords = std::size_t{1} << 12;
    constexpr int kSteps = 1 << 22;
    static const std::vector<std::uint64_t> table = [] {
        std::vector<std::uint64_t> t(kWords);
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::uint64_t& v : t) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            v = x;
        }
        return t;
    }();
    static volatile std::uint64_t sink = 0;
    const Clock::time_point start = Clock::now();
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::uint64_t i = 0;
    for (int n = 0; n < kSteps; ++n) {
        i = table[i & (kWords - 1)] ^ h;
        h = (h ^ (i >> 7)) * 0x100000001b3ull;
    }
    sink = sink + h;
    return since(start);
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t mid = values.size() / 2;
    return values.size() % 2 ? values[mid]
                             : 0.5 * (values[mid - 1] + values[mid]);
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

std::uint64_t
digestOf(std::string_view text)
{
    return Fnv1a::of(text.data(), text.size());
}

std::string
hex(std::uint64_t value)
{
    return format("%016llx", static_cast<unsigned long long>(value));
}

/** Discards everything written to it. */
class NullBuffer : public std::streambuf
{
  protected:
    std::streamsize
    xsputn(const char*, std::streamsize n) override
    {
        return n;
    }
    int overflow(int c) override { return c; }
};

/**
 * Spans of the traced run, kept in memory and written as a Chrome trace
 * when the run ends. Each span names its parent call (its category).
 */
class SpanLog
{
  public:
    /** Run `fn` as span `name` under `parent`; returns its seconds. */
    template <typename Fn>
    double
    time(std::string name, std::string parent, Fn&& fn)
    {
        const double start = since(origin_);
        fn();
        const double end = since(origin_);
        spans_.push_back({std::move(name), std::move(parent), start, end});
        return end - start;
    }

    void
    write(const std::string& path) const
    {
        obs::TraceBuilder trace;
        trace.setProcessName(1, "perfbench host time");
        trace.setThreadName(1, 1, "benchmark thread");
        for (const Span& s : spans_) {
            trace.addSpan(1, 1, s.name, s.parent,
                          static_cast<std::uint64_t>(s.start * 1e6),
                          static_cast<std::uint64_t>(
                              (s.end - s.start) * 1e6));
        }
        std::ofstream out(path);
        if (!out)
            fatal("cannot write %s", path.c_str());
        trace.write(out);
    }

  private:
    struct Span
    {
        std::string name;
        std::string parent;
        double start;
        double end;
    };
    Clock::time_point origin_ = Clock::now();
    std::vector<Span> spans_;
};

using LayerValues = std::map<std::string, double>;

/**
 * The traced run's accounting: `children` and `inside` (the program's
 * own phase counters) must add up to `total` within the tracing
 * overhead. Prints what disagrees; false on a mismatch.
 */
bool
reconcile(const char* what, double total, double children, double inside,
          double run_s)
{
    const double overhead_x = std::max(1.0, ratio(total, run_s));
    const double slack = std::max(0.02 * total,
                                  total * (1.0 - 1.0 / overhead_x))
        + 1e-3;
    bool ok = true;
    if (children > total + 1e-6 || total - children > slack) {
        std::cerr << "reconcile: " << what << " child spans "
                  << children << " s vs traced " << total << " s\n";
        ok = false;
    }
    if (inside > children + 1e-6) {
        std::cerr << "reconcile: " << what << " phase counters "
                  << inside << " s exceed their spans " << children
                  << " s\n";
        ok = false;
    }
    return ok;
}

/** Seconds to write a run's JSON report, stats and Chrome trace. */
double
reportSeconds(const core::RunResult& run)
{
    NullBuffer sink;
    std::ostream out(&sink);
    const Clock::time_point start = Clock::now();
    run.writeJson(out);
    run.writeStatsJson(out);
    run.writeChromeTrace(out);
    return since(start);
}

/** The standalone demand pass (generator + counting visitor). */
struct DemandPass
{
    double seconds = 0.0;
    Count addrs = 0;
    systolic::FoldCacheStats folds;
};

DemandPass
demandPass(const Topology& topo, const SimConfig& cfg, SpanLog& spans,
           const std::string& parent)
{
    DemandPass pass;
    spans.time(parent, "perfbench", [&] {
        for (const LayerSpec& layer : topo.layers) {
            const GemmDims gemm = layer.toGemm();
            const systolic::OperandMap operands
                = cfg.memory.im2colAddressing
                ? systolic::OperandMap::forLayer(layer, cfg.memory)
                : systolic::OperandMap(gemm, cfg.memory);
            systolic::DemandGenerator gen(gemm, cfg.dataflow,
                                          cfg.arrayRows, cfg.arrayCols,
                                          operands);
            gen.setFoldCache(cfg.foldCache);
            systolic::CountingVisitor counter;
            pass.seconds += spans.time("demandgen:" + layer.name, parent,
                                       [&] { gen.run(counter); });
            pass.addrs += counter.ifmapReads + counter.filterReads
                + counter.ofmapReads + counter.ofmapWrites;
            pass.folds.merge(gen.foldCacheStats());
        }
    });
    return pass;
}

/**
 * Median host seconds of a feature-off Simulator::run. Plus a standalone
 * demand pass it is Table IV's v2-style baseline, the denominator of
 * core.feature_overhead_x.
 */
double
plainRunSeconds(const SimConfig& plain, const Topology& topo,
                SpanLog& spans)
{
    std::vector<double> samples;
    for (int i = 0; i < kPlainRuns; ++i) {
        core::Simulator sim(plain);
        samples.push_back(spans.time("core.run_feature_off", "perfbench",
                                     [&] { sim.run(topo); }));
    }
    return median(samples);
}

void
zero(LayerValues& m, std::initializer_list<const char*> names)
{
    for (const char* name : names)
        m[name] = 0.0;
}

/** One workload's code path; see the file comment for the protocol. */
class Bench
{
  public:
    virtual ~Bench() = default;

    /** Build everything a timed call needs, fresh (setup_s). */
    virtual void setup() = 0;
    /** The timed call: one whole simulation or sweep request. */
    virtual void call() = 0;
    /** Untimed bookkeeping after a call that took `seconds`. */
    virtual void recordCall(double /*seconds*/) {}
    /** Digest of the last call's simulated outputs (no host times). */
    virtual std::uint64_t digest() const = 0;
    /** Checks beyond the digest, e.g. warm bytes == cold bytes. */
    virtual bool extraCheck() { return true; }
    /**
     * The traced run: fill every per-layer metric except check.*.
     * `run_s` is the untraced median. False when a check fails.
     */
    virtual bool traced(double run_s, SpanLog& spans, LayerValues& m) = 0;
    /** The audited run; false on a violation. `extra_s`: its cost. */
    virtual bool audited(double run_s, double& extra_s) = 0;
};

/** Whole Simulator::run of a network on one array. */
class SingleCoreBench : public Bench
{
  public:
    SingleCoreBench(std::function<Topology()> topology, SimConfig cfg)
        : makeTopology_(std::move(topology)), cfg_(std::move(cfg))
    {}

    void
    setup() override
    {
        topo_ = makeTopology_();
        cfg_.validate();
        sim_ = std::make_unique<core::Simulator>(cfg_);
    }

    void call() override { run_ = sim_->run(topo_); }

    void
    recordCall(double seconds) override
    {
        outside_.push_back(seconds - run_.profile.totalSeconds);
    }

    std::uint64_t
    digest() const override
    {
        std::ostringstream out;
        run_.writeStatsJson(out);
        out << "totals " << run_.totalCycles << ' ' << run_.computeCycles
            << ' ' << run_.stallCycles << ' ' << run_.dramReadWords << ' '
            << run_.dramWriteWords << ' '
            << format("%.17g", run_.totalEnergy.totalPj()) << '\n';
        return digestOf(out.str());
    }

    bool
    traced(double run_s, SpanLog& spans, LayerValues& m) override
    {
        setup();
        std::vector<double> layer_s;
        Cycle total_cycles = 0;
        const double cpu_start = cpuSeconds();
        const double traced_s = spans.time("core.run", "perfbench", [&] {
            for (std::size_t i = 0; i < topo_.layers.size(); ++i) {
                const LayerSpec& layer = topo_.layers[i];
                core::LayerResult r;
                layer_s.push_back(spans.time(
                    "layer:" + layer.name, "core.run",
                    [&] { r = sim_->runLayer(layer, i); }));
                total_cycles += r.totalCycles * r.repetitions;
            }
        });
        const double cpu_s = cpuSeconds() - cpu_start;
        const SimProfile prof = sim_->profile();
        const systolic::FoldCacheStats folds = sim_->foldCacheStats();
        const dram::DramMemory* dram = sim_->dramMemory();
        const double layers_total
            = std::accumulate(layer_s.begin(), layer_s.end(), 0.0);

        const DemandPass demand = demandPass(topo_, cfg_, spans,
                                             "systolic.demandgen");
        SimConfig plain = cfg_;
        plain.energy.enabled = false;
        plain.layout.enabled = false;
        const double plain_s = plainRunSeconds(plain, topo_, spans);
        double report_s = 0.0;
        spans.time("obs.report", "perfbench",
                   [&] { report_s = reportSeconds(run_); });

        const double demand_s = prof.seconds(SimPhase::DemandGen);
        const double consumer_s = demand_s - demand.seconds;
        const double dram_s = prof.seconds(SimPhase::Dram);
        const double requests = dram
            ? static_cast<double>(dram->system().totalStats().reads
                                  + dram->system().totalStats().writes)
            : 0.0;
        m["core.runLayer_s"] = layers_total;
        m["core.slowest_layer_s"]
            = *std::max_element(layer_s.begin(), layer_s.end());
        m["core.outside_layers_s"] = median(outside_);
        m["core.feature_overhead_x"] = ratio(run_s,
                                             plain_s + demand.seconds);
        m["obs.report_s"] = report_s;
        m["systolic.demand_s"] = demand_s;
        m["systolic.demandgen_s"] = demand.seconds;
        m["systolic.addrs"] = static_cast<double>(demand.addrs);
        m["systolic.ns_per_addr"] = ratio(demand.seconds * 1e9,
                                          static_cast<double>(demand.addrs));
        m["systolic.fold_replay_ratio"]
            = ratio(static_cast<double>(folds.foldsReplayed),
                    static_cast<double>(folds.foldsTotal));
        m["systolic.scratchpad_s"] = prof.seconds(SimPhase::Scratchpad);
        m["energy.count_s"] = cfg_.energy.enabled ? consumer_s : 0.0;
        m["energy.estimate_s"] = prof.seconds(SimPhase::Energy);
        m["layout.eval_s"] = cfg_.layout.enabled ? consumer_s : 0.0;
        m["dram.timing_s"] = dram_s;
        m["dram.requests"] = requests;
        m["dram.ns_per_request"] = ratio(dram_s * 1e9, requests);
        zero(m, {"multicore.runLayer_s", "multicore.slowest_layer_s",
                 "multicore.grants", "multicore.ns_per_grant",
                 "serve.cold_point_s", "serve.warm_point_s",
                 "serve.warm_hit_rate", "serve.warm_req_s",
                 "serve.cache_bytes"});
        m["host.cpu_s"] = cpu_s;
        m["host.cores_used"] = ratio(cpu_s, traced_s);
        m["host.trace_overhead_x"] = ratio(traced_s, run_s);

        bool ok = true;
        if (total_cycles != run_.totalCycles) {
            std::cerr << "traced run: " << total_cycles
                      << " cycles, timed runs " << run_.totalCycles << "\n";
            ok = false;
        }
        return reconcile("core.run", traced_s, layers_total,
                         prof.totalSeconds, run_s)
            && ok;
    }

    bool
    audited(double run_s, double& extra_s) override
    {
        SimConfig cfg = cfg_;
        cfg.audit = true;
        core::Simulator sim(cfg);
        const Clock::time_point start = Clock::now();
        const core::RunResult run = sim.run(topo_);
        extra_s = std::max(0.0, since(start) - run_s);
        if (!run.audited || !run.audit.clean()) {
            run.audit.writeReport(std::cerr);
            return false;
        }
        return run.totalCycles == run_.totalCycles;
    }

  private:
    std::function<Topology()> makeTopology_;
    SimConfig cfg_;
    Topology topo_;
    std::unique_ptr<core::Simulator> sim_;
    core::RunResult run_;
    /** Per call: run wall seconds minus time inside runLayer. */
    std::vector<double> outside_;
};

/**
 * The trace-level multi-core layer loop, set up as `scalesim_cli
 * --multicore` sets it up.
 */
class MultiCoreBench : public Bench
{
  public:
    MultiCoreBench(std::function<Topology()> topology, SimConfig base,
                   multicore::MultiCoreTraceConfig mc)
        : makeTopology_(std::move(topology)), base_(std::move(base)),
          mc_(mc)
    {}

    void
    setup() override
    {
        topo_ = makeTopology_();
        base_.validate();
        sim_ = std::make_unique<multicore::MultiCoreTraceSimulator>(mc_);
    }

    void
    call() override
    {
        results_.clear();
        for (const LayerSpec& layer : topo_.layers)
            results_.push_back(sim_->runLayer(layer));
    }

    std::uint64_t
    digest() const override
    {
        return digestOf(statsText(results_));
    }

    bool
    traced(double run_s, SpanLog& spans, LayerValues& m) override
    {
        setup();
        std::vector<double> layer_s;
        std::vector<multicore::MultiCoreTraceResult> results;
        Count grants = 0;
        const double cpu_start = cpuSeconds();
        const double traced_s
            = spans.time("multicore.run", "perfbench", [&] {
                  for (const LayerSpec& layer : topo_.layers) {
                      layer_s.push_back(spans.time(
                          "layer:" + layer.name, "multicore.run", [&] {
                              results.push_back(sim_->runLayer(layer));
                          }));
                      grants += results.back().arb.grants;
                  }
              });
        const double cpu_s = cpuSeconds() - cpu_start;
        const double layers_total
            = std::accumulate(layer_s.begin(), layer_s.end(), 0.0);
        const double plain_s = plainRunSeconds(SimConfig{}, topo_, spans);
        const double demand_s = demandPass(topo_, SimConfig{}, spans,
                                           "baseline.demandgen")
                                    .seconds;
        double report_s = 0.0;
        spans.time("obs.report", "perfbench", [&] {
            const Clock::time_point start = Clock::now();
            NullBuffer sink;
            std::ostream out(&sink);
            statsOf(results).dumpJson(out);
            report_s = since(start);
        });

        zero(m, {"core.runLayer_s", "core.slowest_layer_s",
                 "systolic.demand_s", "systolic.demandgen_s",
                 "systolic.addrs", "systolic.ns_per_addr",
                 "systolic.fold_replay_ratio", "systolic.scratchpad_s",
                 "energy.count_s", "energy.estimate_s", "layout.eval_s",
                 "dram.timing_s", "dram.requests", "dram.ns_per_request",
                 "serve.cold_point_s", "serve.warm_point_s",
                 "serve.warm_hit_rate", "serve.warm_req_s",
                 "serve.cache_bytes"});
        m["core.outside_layers_s"] = traced_s - layers_total;
        // Multi-core run over the single-core v2-style baseline of the
        // same network: the trace-level counterpart of Table IV's
        // multi-core column.
        m["core.feature_overhead_x"] = ratio(run_s, plain_s + demand_s);
        m["obs.report_s"] = report_s;
        m["multicore.runLayer_s"] = layers_total;
        m["multicore.slowest_layer_s"]
            = *std::max_element(layer_s.begin(), layer_s.end());
        m["multicore.grants"] = static_cast<double>(grants);
        m["multicore.ns_per_grant"]
            = ratio(layers_total * 1e9, static_cast<double>(grants));
        m["host.cpu_s"] = cpu_s;
        m["host.cores_used"] = ratio(cpu_s, traced_s);
        m["host.trace_overhead_x"] = ratio(traced_s, run_s);

        bool ok = true;
        if (statsText(results) != statsText(results_)) {
            std::cerr << "traced run: multi-core stats differ from the "
                         "timed runs\n";
            ok = false;
        }
        return reconcile("multicore.run", traced_s, layers_total, 0.0,
                         run_s)
            && ok;
    }

    bool
    audited(double run_s, double& extra_s) override
    {
        multicore::MultiCoreTraceSimulator sim(mc_);
        check::InvariantAuditor auditor;
        std::vector<multicore::MultiCoreTraceResult> results;
        const Clock::time_point start = Clock::now();
        for (std::size_t li = 0; li < topo_.layers.size(); ++li) {
            const auto& res
                = results.emplace_back(sim.runLayer(topo_.layers[li]));
            const std::string scope = "mc.l" + std::to_string(li);
            auditor.auditArbiter(res, mc_.useL2, scope);
            for (std::size_t c = 0; c < res.perCore.size(); ++c) {
                const std::string core_scope
                    = scope + ".core" + std::to_string(c);
                auditor.auditStallAccounting(res.perCore[c], core_scope);
                auditor.auditCpiStack(res.perCore[c].cpi,
                                      res.perCore[c].totalCycles,
                                      core_scope);
            }
        }
        extra_s = std::max(0.0, since(start) - run_s);
        if (!auditor.report().clean()) {
            auditor.report().writeReport(std::cerr);
            return false;
        }
        return statsText(results) == statsText(results_);
    }

  private:
    static obs::StatsRegistry
    statsOf(const std::vector<multicore::MultiCoreTraceResult>& results)
    {
        obs::StatsRegistry reg;
        for (std::size_t li = 0; li < results.size(); ++li)
            results[li].registerStats(reg, "mc.l" + std::to_string(li));
        return reg;
    }

    static std::string
    statsText(const std::vector<multicore::MultiCoreTraceResult>& results)
    {
        std::ostringstream out;
        statsOf(results).dumpJson(out);
        return out.str();
    }

    std::function<Topology()> makeTopology_;
    SimConfig base_;
    multicore::MultiCoreTraceConfig mc_;
    Topology topo_;
    std::unique_ptr<multicore::MultiCoreTraceSimulator> sim_;
    std::vector<multicore::MultiCoreTraceResult> results_;
};

/** One [section] key = value of the sweep's config overlay; one key
    per section. */
struct Overlay
{
    const char* section;
    const char* key;
    std::string value;
};

/** The sweep's design points: arrays x OS x one SRAM budget. */
constexpr std::uint32_t kSweepArrays[] = {32, 64, 128};
constexpr std::uint64_t kSweepSramKb = 1024;

/** Warm repeats of the request after each timed cold one. */
constexpr int kWarmRepeats = 10;

/**
 * A serve::Server sweep request, sent cold to a fresh server in every
 * timed call, then repeated warm (untimed for run_s, reported as
 * serve.warm_req_s).
 */
class SweepBench : public Bench
{
  public:
    SweepBench(std::function<Topology()> topology, std::string topo_json,
               std::vector<Overlay> overlay)
        : makeTopology_(std::move(topology)), overlay_(std::move(overlay))
    {
        request_ = "{\"id\":1,\"type\":\"sweep\"," + topo_json
            + ",\"config\":{";
        for (std::size_t i = 0; i < overlay_.size(); ++i) {
            const Overlay& o = overlay_[i];
            request_ += format("%s\"%s\":{\"%s\":\"%s\"}", i ? "," : "",
                               o.section, o.key, o.value.c_str());
        }
        request_ += "},\"sweep\":{\"arrays\":[";
        for (std::size_t i = 0; i < std::size(kSweepArrays); ++i)
            request_ += (i ? "," : "") + std::to_string(kSweepArrays[i]);
        request_ += "],\"dataflows\":[\"os\"],\"sramKb\":["
            + std::to_string(kSweepSramKb) + "],\"jobs\":1}}";
    }

    void
    setup() override
    {
        server_ = std::make_unique<serve::Server>(serve::Server::Options{});
    }

    void call() override { response_ = server_->handleRequest(request_); }

    std::uint64_t digest() const override { return digestOf(response_); }

    bool
    extraCheck() override
    {
        // Every warm response must be the cold one's bytes.
        bool ok = true;
        for (int i = 0; i < kWarmRepeats; ++i) {
            const Clock::time_point start = Clock::now();
            const std::string warm = server_->handleRequest(request_);
            warmReq_.push_back(since(start));
            if (warm != response_) {
                std::cerr << "sweep: warm response differs from the cold "
                             "one\n";
                ok = false;
            }
        }
        return ok;
    }

    bool
    traced(double run_s, SpanLog& spans, LayerValues& m) override
    {
        const Topology topo = makeTopology_();
        const std::vector<SimConfig> points = pointConfigs();
        serve::LayerResultCache cache;
        std::vector<core::RunResult> cold(points.size());
        std::vector<double> cold_s, warm_s;

        const double cpu_start = cpuSeconds();
        const double cold_total = spans.time("serve.sweep_cold", "perfbench",
                                             [&] {
            for (std::size_t i = 0; i < points.size(); ++i) {
                cold_s.push_back(spans.time(
                    pointName(i), "serve.sweep_cold", [&] {
                        cold[i] = serve::runTopologyCached(points[i], topo,
                                                           &cache);
                    }));
            }
        });
        const double cold_cpu = cpuSeconds() - cpu_start;
        const serve::CacheStats filled = cache.stats();
        const double warm_total = spans.time("serve.sweep_warm", "perfbench",
                                             [&] {
            for (std::size_t i = 0; i < points.size(); ++i) {
                warm_s.push_back(spans.time(
                    pointName(i), "serve.sweep_warm", [&] {
                        serve::runTopologyCached(points[i], topo, &cache);
                    }));
            }
        });
        const serve::CacheStats after = cache.stats();

        // The cached runner's RunResult::profile covers its last layer
        // only (it resets the Simulator before each layer), so the phase
        // split comes from replaying its layer-isolated evaluation
        // through the public Simulator API: a reset before every layer.
        SimProfile prof;
        std::vector<double> layer_s;
        double reset_s = 0.0;
        double requests = 0.0;
        bool replay_ok = true;
        const double replay_total = spans.time("serve.layer_replay",
                                               "perfbench", [&] {
            for (std::size_t p = 0; p < points.size(); ++p) {
                const std::string point = "replay:" + pointName(p);
                spans.time(point, "serve.layer_replay", [&] {
                    std::unique_ptr<core::Simulator> sim;
                    Cycle total_cycles = 0;
                    for (std::size_t i = 0; i < topo.layers.size(); ++i) {
                        const LayerSpec& layer = topo.layers[i];
                        reset_s += spans.time("reset", point, [&] {
                            if (sim)
                                sim->reset();
                            else
                                sim = std::make_unique<core::Simulator>(
                                    points[p]);
                        });
                        core::LayerResult r;
                        layer_s.push_back(spans.time(
                            "layer:" + layer.name, point,
                            [&] { r = sim->runLayer(layer, i); }));
                        total_cycles += r.totalCycles * r.repetitions;
                        prof.merge(sim->profile());
                        if (const auto* dram = sim->dramMemory()) {
                            const dram::DramStats st
                                = dram->system().totalStats();
                            requests += static_cast<double>(st.reads
                                                            + st.writes);
                        }
                    }
                    if (total_cycles != cold[p].totalCycles) {
                        std::cerr << "layer replay: " << pointName(p)
                                  << " cycles differ from the cached "
                                     "runner\n";
                        replay_ok = false;
                    }
                });
            }
        });

        DemandPass demand;
        for (std::size_t p = 0; p < points.size(); ++p) {
            const DemandPass one = demandPass(
                topo, points[p], spans,
                "systolic.demandgen:" + pointName(p));
            demand.seconds += one.seconds;
            demand.addrs += one.addrs;
            demand.folds.merge(one.folds);
        }
        double report_s = 0.0;
        spans.time("obs.report", "perfbench", [&] {
            for (const core::RunResult& run : cold)
                report_s += reportSeconds(run);
        });

        coldTotal_ = cold_total;
        const double demand_s = prof.seconds(SimPhase::DemandGen);
        const double dram_s = prof.seconds(SimPhase::Dram);
        const double n = static_cast<double>(points.size());
        const double layers_total
            = std::accumulate(layer_s.begin(), layer_s.end(), 0.0);
        const double cold_sum
            = std::accumulate(cold_s.begin(), cold_s.end(), 0.0);
        const double warm_sum
            = std::accumulate(warm_s.begin(), warm_s.end(), 0.0);
        const double hits = static_cast<double>(after.hits - filled.hits);
        const double lookups = hits
            + static_cast<double>(after.misses - filled.misses);
        m["core.runLayer_s"] = layers_total;
        m["core.slowest_layer_s"]
            = *std::max_element(layer_s.begin(), layer_s.end());
        m["core.outside_layers_s"] = cold_total - layers_total;
        m["core.feature_overhead_x"] = 0.0;
        m["obs.report_s"] = report_s;
        m["systolic.demand_s"] = demand_s;
        m["systolic.demandgen_s"] = demand.seconds;
        m["systolic.addrs"] = static_cast<double>(demand.addrs);
        m["systolic.ns_per_addr"] = ratio(demand.seconds * 1e9,
                                          static_cast<double>(demand.addrs));
        m["systolic.fold_replay_ratio"]
            = ratio(static_cast<double>(demand.folds.foldsReplayed),
                    static_cast<double>(demand.folds.foldsTotal));
        m["systolic.scratchpad_s"] = prof.seconds(SimPhase::Scratchpad);
        m["energy.count_s"] = demand_s - demand.seconds;
        m["energy.estimate_s"] = prof.seconds(SimPhase::Energy);
        m["layout.eval_s"] = 0.0;
        m["dram.timing_s"] = dram_s;
        m["dram.requests"] = requests;
        m["dram.ns_per_request"] = ratio(dram_s * 1e9, requests);
        zero(m, {"multicore.runLayer_s", "multicore.slowest_layer_s",
                 "multicore.grants", "multicore.ns_per_grant"});
        m["serve.cold_point_s"] = cold_sum / n;
        m["serve.warm_point_s"] = warm_sum / n;
        m["serve.warm_hit_rate"] = ratio(hits, lookups);
        m["serve.cache_bytes"] = static_cast<double>(filled.bytes);
        m["serve.warm_req_s"] = median(warmReq_);
        m["host.cpu_s"] = cold_cpu;
        m["host.cores_used"] = ratio(cold_cpu, cold_total);
        m["host.trace_overhead_x"] = ratio(cold_total, run_s);

        const bool ok = matchesResponse(cold) && replay_ok;
        return reconcile("serve.sweep_cold", cold_total, cold_sum, 0.0,
                         run_s)
            && reconcile("serve.sweep_warm", warm_total, warm_sum, 0.0,
                         warm_total)
            && reconcile("serve.layer_replay", replay_total,
                         layers_total + reset_s, prof.totalSeconds,
                         replay_total)
            && ok;
    }

    bool
    audited(double /*run_s*/, double& extra_s) override
    {
        // Audited configs bypass the cache and take the coupled
        // Simulator::run path inside runTopologyCached.
        const Topology topo = makeTopology_();
        bool ok = true;
        const Clock::time_point start = Clock::now();
        for (SimConfig cfg : pointConfigs()) {
            cfg.audit = true;
            const core::RunResult run
                = serve::runTopologyCached(cfg, topo, nullptr);
            if (!run.audited || !run.audit.clean()) {
                run.audit.writeReport(std::cerr);
                ok = false;
            }
        }
        extra_s = std::max(0.0, since(start) - coldTotal_);
        return ok;
    }

  private:
    static std::string
    pointName(std::size_t i)
    {
        return "point:array" + std::to_string(kSweepArrays[i]);
    }

    /** Each design point's config, as the server builds it. */
    std::vector<SimConfig>
    pointConfigs() const
    {
        IniFile ini;
        for (const Overlay& o : overlay_)
            ini.set(o.section, o.key, o.value);
        const SimConfig base = SimConfig::fromIni(ini);
        std::vector<SimConfig> points;
        for (std::uint32_t array : kSweepArrays) {
            SimConfig cfg = base;
            cfg.arrayRows = cfg.arrayCols = array;
            cfg.dataflow = Dataflow::OutputStationary;
            cfg.energy.enabled = true;
            const core::SramSplit split = core::splitSramKb(kSweepSramKb);
            cfg.memory.ifmapSramKb = split.ifmapKb;
            cfg.memory.filterSramKb = split.filterKb;
            cfg.memory.ofmapSramKb = split.ofmapKb;
            points.push_back(cfg);
        }
        return points;
    }

    /** The traced points must report the timed response's cycles. */
    bool
    matchesResponse(const std::vector<core::RunResult>& runs) const
    {
        obs::JsonValue doc;
        const std::string& line = response_;
        const obs::JsonValue* result = nullptr;
        const obs::JsonValue* points = nullptr;
        if (obs::parseJson(line, doc))
            result = doc.find("result");
        if (result)
            points = result->find("points");
        if (!points || points->items.size() != runs.size()) {
            std::cerr << "traced sweep: response has no matching points\n";
            return false;
        }
        for (std::size_t i = 0; i < runs.size(); ++i) {
            if (points->items[i].numberAt("cycles")
                != static_cast<double>(runs[i].totalCycles)) {
                std::cerr << "traced sweep: " << pointName(i)
                          << " cycles differ from the response\n";
                return false;
            }
        }
        return true;
    }

    std::function<Topology()> makeTopology_;
    std::vector<Overlay> overlay_;
    std::string request_;
    std::unique_ptr<serve::Server> server_;
    std::string response_;
    /** Seconds of each warm repeat (serve.warm_req_s). */
    std::vector<double> warmReq_;
    double coldTotal_ = 0.0;
};

/** A benchmark workload: its code path and its pinned output digest. */
struct Workload
{
    const char* name;
    /** FNV-1a of the simulated outputs; every run prints the observed
        one beside it. */
    std::uint64_t digest;
};

constexpr Workload kWorkloads[] = {
    {"resnet50_energy", 0x35b6873083e3085eull},
    {"vit_base_layout", 0x396ff80e070cda88ull},
    {"resnet50_mc4x4", 0x8630755e9a4264c1ull},
    {"vit_base_sweep", 0x079e5ceec5af2228ull},
};

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string traceOut;
    bool quick = false;
    bool perturb = false;
};

/** Inline-topology JSON for a sweep request on a non-built-in net. */
std::string
topologyJson(const Topology& topo)
{
    std::string json = "\"topology\":{\"name\":\"" + topo.name
        + "\",\"layers\":[";
    for (std::size_t i = 0; i < topo.layers.size(); ++i) {
        const LayerSpec& l = topo.layers[i];
        if (l.type != LayerType::Conv)
            fatal("perfbench: inline topologies hold conv layers only");
        json += format("%s{\"type\":\"conv\",\"name\":\"%s\","
                       "\"ifmapH\":%llu,\"ifmapW\":%llu,"
                       "\"filterH\":%llu,\"filterW\":%llu,"
                       "\"channels\":%llu,\"numFilters\":%llu,"
                       "\"stride\":%llu,\"repetitions\":%u}",
                       i ? "," : "", l.name.c_str(),
                       static_cast<unsigned long long>(l.ifmapH),
                       static_cast<unsigned long long>(l.ifmapW),
                       static_cast<unsigned long long>(l.filterH),
                       static_cast<unsigned long long>(l.filterW),
                       static_cast<unsigned long long>(l.channels),
                       static_cast<unsigned long long>(l.numFilters),
                       static_cast<unsigned long long>(l.stride),
                       l.repetitions);
    }
    return json + "]}";
}

/**
 * Build a workload's bench. The seed only labels the run (run_name):
 * the simulated inputs are the paper's fixed networks, so the digests
 * can be pinned, and a label that leaked into results would trip them.
 */
std::unique_ptr<Bench>
makeBench(const Options& opt, bool perturb)
{
    const std::string& w = opt.workload;
    const std::string run_name = "perfbench-seed-"
        + std::to_string(opt.seed);
    auto network = [&](const char* name) -> std::function<Topology()> {
        if (opt.quick)
            return [] { return workloads::resnet18Prefix(2); };
        const std::string n = name;
        return [n] { return workloads::byName(n); };
    };

    SimConfig cfg; // 32x32 OS, trace mode, fold cache on, audit off
    cfg.runName = run_name;
    if (perturb)
        cfg.memory.burstWords /= 2;
    if (w == "resnet50_energy") {
        cfg.energy.enabled = true;
        return std::make_unique<SingleCoreBench>(network("resnet50"), cfg);
    }
    if (w == "vit_base_layout") {
        // Table IV's layout setting.
        cfg.layout.enabled = true;
        cfg.layout.banks = 32;
        cfg.layout.onChipBandwidth = 256;
        return std::make_unique<SingleCoreBench>(network("vit_base"), cfg);
    }
    if (w == "resnet50_mc4x4") {
        multicore::MultiCoreTraceConfig mc;
        mc.pr = mc.pc = 4;
        mc.arrayRows = cfg.arrayRows;
        mc.arrayCols = cfg.arrayCols;
        mc.dataflow = cfg.dataflow;
        mc.dramWordsPerCycle = cfg.memory.bandwidthWordsPerCycle;
        mc.contention = multicore::ContentionModel::Shared;
        mc.engine = multicore::MultiCoreEngine::Serial;
        const std::uint32_t word
            = std::max<std::uint32_t>(1, cfg.memory.wordBytes);
        mc.l1.ifmapWords = cfg.memory.ifmapSramKb * 1024 / word;
        mc.l1.filterWords = cfg.memory.filterSramKb * 1024 / word;
        mc.l1.ofmapWords = cfg.memory.ofmapSramKb * 1024 / word;
        mc.l1.burstWords = cfg.memory.burstWords;
        return std::make_unique<MultiCoreBench>(network("resnet50"), cfg,
                                                mc);
    }
    if (w == "vit_base_sweep") {
        std::vector<Overlay> overlay = {
            {"architecture", "BurstWords",
             std::to_string(cfg.memory.burstWords)},
            {"general", "run_name", run_name},
            {"memory", "DramModel", "true"},
        };
        const std::string topo_json = opt.quick
            ? topologyJson(workloads::resnet18Prefix(2))
            : "\"workload\":\"vit_base\"";
        return std::make_unique<SweepBench>(network("vit_base"), topo_json,
                                            std::move(overlay));
    }
    return nullptr;
}

std::string
jsonNumber(double value)
{
    return std::isfinite(value) ? format("%.17g", value) : "0";
}

int
runBenchmark(const Options& opt)
{
    const Workload* workload = nullptr;
    for (const Workload& w : kWorkloads)
        if (opt.workload == w.name)
            workload = &w;
    std::unique_ptr<Bench> bench = makeBench(opt, opt.perturb);
    if (!workload || !bench) {
        std::cerr << "perfbench: unknown workload '" << opt.workload
                  << "'\n";
        return 2;
    }

    std::uint64_t expected = workload->digest;
    if (opt.quick) {
        std::unique_ptr<Bench> reference = makeBench(opt, false);
        reference->setup();
        reference->call();
        expected = reference->digest();
    }

    std::vector<double> setup_s; // slice medians
    std::vector<double> slice;
    slice.reserve(kSliceReps);
    std::uint64_t setups = 0;
    auto setupSlice = [&](std::size_t min_reps) {
        slice.clear();
        const Clock::time_point begin = Clock::now();
        while (slice.size() < min_reps
               || (slice.size() < kSliceReps
                   && since(begin) < kSliceSeconds)) {
            const Clock::time_point start = Clock::now();
            bench->setup();
            slice.push_back(since(start));
        }
        setups += slice.size();
        setup_s.push_back(median(slice));
    };
    setupSlice(kMinSetups);

    std::vector<double> run_s;       // wall seconds per call
    std::vector<double> calib_s;     // calibration loop around each call
    std::vector<double> scaled_s;    // run_s at the reference host speed
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::uint64_t last_digest = 0;
    const Clock::time_point loop_start = Clock::now();
    while (attempted < kMinCalls || since(loop_start) < opt.seconds) {
        ++attempted;
        bool ok = false;
        try {
            if (attempted > 1)
                setupSlice(1);
            const double calib_before = calibrationSeconds();
            const Clock::time_point start = Clock::now();
            bench->call();
            const double seconds = since(start);
            const double calib = 0.5 * (calib_before + calibrationSeconds());
            calib_s.push_back(calib);
            scaled_s.push_back(seconds * kCalibrationRefSeconds / calib);
            run_s.push_back(seconds);
            bench->recordCall(seconds);
            last_digest = bench->digest();
            ok = last_digest == expected && bench->extraCheck();
        } catch (const std::exception& e) {
            std::cerr << "perfbench: call " << attempted
                      << " failed: " << e.what() << "\n";
        }
        if (!ok)
            ++failed;
    }
    const double peak_rss_mb = static_cast<double>(peakRssKb()) / 1024.0;
    const std::uint64_t calls_failed = failed;
    const std::uint64_t calls = attempted;
    const double run_median = median(run_s);

    auto range = [](const std::vector<double>& v) {
        if (v.empty())
            return std::string("none");
        return format("min %.6g median %.6g max %.6g",
                      *std::min_element(v.begin(), v.end()), median(v),
                      *std::max_element(v.begin(), v.end()));
    };
    std::cout << "perfbench: " << opt.workload
              << (opt.quick ? " (quick)" : "") << ", seed " << opt.seed
              << ", " << run_s.size() << " timed calls, " << setups
              << " set-ups in " << setup_s.size() << " slices\n"
              << "  run calls, wall: " << range(run_s)
              << "\n  calibration loop: " << range(calib_s)
              << "\n  run calls at reference host speed: "
              << range(scaled_s) << "\n  set-up slice medians: " << range(setup_s) << "\n"
              << "  digest " << hex(last_digest) << " (expected "
              << hex(expected) << "), " << calls_failed << " of " << calls
              << " calls failed\n";

    std::vector<std::pair<std::string, std::pair<double, const char*>>>
        metrics;
    if (!opt.trace) {
        metrics.push_back({"run_s", {median(scaled_s), "s"}});
        metrics.push_back({"setup_s", {median(setup_s), "s"}});
        metrics.push_back({"peak_rss_mb", {peak_rss_mb, "MB"}});
    } else {
        SpanLog spans;
        LayerValues m;
        bool traced_ok = false;
        bool audit_ok = false;
        double audit_s = 0.0;
        spans.time("perfbench", "", [&] {
            try {
                traced_ok = bench->traced(run_median, spans, m);
            } catch (const std::exception& e) {
                std::cerr << "perfbench: traced run failed: " << e.what()
                          << "\n";
            }
            try {
                spans.time("check.audit", "perfbench", [&] {
                    audit_ok = bench->audited(run_median, audit_s);
                });
            } catch (const std::exception& e) {
                std::cerr << "perfbench: audited run failed: " << e.what()
                          << "\n";
            }
        });
        attempted += 2;
        failed += !traced_ok + !audit_ok;
        m["check.audit_s"] = audit_s;
        m["check.fail_rate"] = ratio(static_cast<double>(calls_failed),
                                     static_cast<double>(calls));
        m["check.iterations"] = static_cast<double>(run_s.size());
        if (!opt.traceOut.empty())
            spans.write(opt.traceOut);

        for (const auto& [name, unit] : kLayerMetrics) {
            const auto it = m.find(name);
            if (it == m.end()) {
                std::cerr << "perfbench: per-layer metric " << name
                          << " is missing\n";
                return 3;
            }
            metrics.push_back({name, {it->second, unit}});
            m.erase(it);
        }
        if (!m.empty()) {
            std::cerr << "perfbench: unlisted per-layer metric "
                      << m.begin()->first << "\n";
            return 3;
        }
    }
    for (const auto& [name, value] : metrics) {
        std::cout << "  " << name << " = " << jsonNumber(value.first) << " "
                  << value.second << "\n";
    }

    std::string line = format("{\"correct\": %s, \"attempted\": %llu, "
                              "\"failed\": %llu, \"metrics\": {",
                              failed == 0 ? "true" : "false",
                              static_cast<unsigned long long>(attempted),
                              static_cast<unsigned long long>(failed));
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        line += format("%s\"%s\": {\"value\": %s, \"unit\": \"%s\"}",
                       i ? ", " : "", metrics[i].first.c_str(),
                       jsonNumber(metrics[i].second.first).c_str(),
                       metrics[i].second.second);
    }
    std::cout << line << "}}" << std::endl;
    return 0;
}

[[noreturn]] void
usage(const char* why)
{
    std::cerr << "perfbench: " << why
              << "\nusage: perfbench --workload NAME [--seed N] "
                 "[--seconds S] [--trace 0|1] [--trace-out PATH] "
                 "[--quick] [--perturb]\n";
    std::exit(2);
}

} // namespace

int
main(int argc, char** argv)
{
    setQuiet(true);
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string_view {
            if (i + 1 >= argc)
                usage(("missing value for " + arg).c_str());
            return argv[++i];
        };
        std::int64_t trace = 0;
        if (arg == "--workload") {
            opt.workload = next();
        } else if (arg == "--seed") {
            if (parseUint64(next(), opt.seed) != NumberParse::Ok)
                usage("--seed expects a whole number");
        } else if (arg == "--seconds") {
            if (parseDouble(next(), opt.seconds) != NumberParse::Ok
                || opt.seconds < 0.0)
                usage("--seconds expects a non-negative number");
        } else if (arg == "--trace") {
            if (parseInt64(next(), trace) != NumberParse::Ok
                || (trace != 0 && trace != 1))
                usage("--trace expects 0 or 1");
            opt.trace = trace == 1;
        } else if (arg == "--trace-out") {
            opt.traceOut = next();
        } else if (arg == "--quick") {
            opt.quick = true;
        } else if (arg == "--perturb") {
            opt.perturb = true;
        } else {
            usage(("unknown argument " + arg).c_str());
        }
    }
    if (opt.workload.empty())
        usage("--workload is required");
    try {
        return runBenchmark(opt);
    } catch (const std::exception& e) {
        std::cerr << "perfbench: " << e.what() << "\n";
        return 1;
    }
}
