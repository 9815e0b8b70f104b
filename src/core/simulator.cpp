#include "core/simulator.hpp"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <future>
#include <numeric>
#include <ostream>
#include <span>
#include <thread>

#include "check/thread_safety.hpp"
#include "common/csv.hpp"
#include "common/log.hpp"
#include "common/parallel.hpp"
#include "multicore/tensor_core.hpp"
#include "multicore/trace_sim.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "systolic/demand.hpp"
#include "systolic/fold_cache.hpp"

namespace scalesim::core
{

Simulator::Simulator(const SimConfig& cfg, TraceStreams traces)
    : cfg_(cfg), memTrace_(traces.memory)
{
    cfg_.validate();
    init();
    if (traces.ifmapSram || traces.filterSram || traces.ofmapSram
        || traces.ofmapReadSram) {
        sramTrace_ = std::make_unique<systolic::SramTraceWriter>(
            traces.ifmapSram, traces.filterSram, traces.ofmapSram,
            traces.ofmapReadSram);
    }
    if (memTrace_)
        systolic::writeMemTrace(*memTrace_, {});
}

void
Simulator::init()
{
    if (cfg_.dram.enabled) {
        dram_ = std::make_unique<dram::DramMemory>(cfg_.dram,
                                                   cfg_.memory.wordBytes);
        memory_ = dram_.get();
    } else {
        bandwidthMemory_ = std::make_unique<systolic::BandwidthMemory>(
            cfg_.memory.bandwidthWordsPerCycle);
        memory_ = bandwidthMemory_.get();
    }
    if (memTrace_) {
        tracer_ = std::make_unique<systolic::TracingMemory>(
            *memory_, cfg_.memory.wordBytes);
        memory_ = tracer_.get();
    }

    scratchpad_ = std::make_unique<systolic::DoubleBufferedScratchpad>(
        systolic::scratchpadConfig(cfg_), *memory_);

    if (cfg_.energy.enabled) {
        const double sram_kb = static_cast<double>(
            cfg_.memory.ifmapSramKb + cfg_.memory.filterSramKb
            + cfg_.memory.ofmapSramKb);
        energyModel_ = std::make_unique<energy::EnergyModel>(
            energy::Ert::forNode(cfg_.energy.node), cfg_.energy,
            cfg_.numPes(), sram_kb);
    }
    if (cfg_.audit)
        auditor_ = std::make_unique<check::InvariantAuditor>();
}

Simulator::~Simulator() = default;

void
Simulator::reset()
{
    rebuild();
    profiler_.reset();
    ranOnce_ = false;
}

void
Simulator::rebuild()
{
    // Rebuild every stateful component from the config, exactly as the
    // constructor does: the memory models carry row-buffer, refresh,
    // and bus-occupancy state, the scratchpad holds queue/prefetch
    // state, and the auditor accumulates checks. Dropping them first
    // releases the scratchpad's reference into the old memory model.
    scratchpad_.reset();
    tracer_.reset();
    dram_.reset();
    bandwidthMemory_.reset();
    memory_ = nullptr;
    energyModel_.reset();
    auditor_.reset();
    init();
    timeline_ = 0;
    foldCacheStats_ = {};
}

struct Simulator::LayerDemand
{
    std::optional<sparse::SparseLayerModel> sparse;
    systolic::OperandMap operands;
    double layoutSlowdown = 1.0;
    /** Exact action counts; empty unless the pass counted energy. */
    std::optional<energy::ActionCounts> actions;
    /** Fold-cache counters of a model pass (zero otherwise). */
    systolic::FoldCacheStats foldCache;
    /** Sparsity and demand-generation seconds of this stage. */
    SimProfiler profiler;
};

bool
Simulator::modelPass() const
{
    return cfg_.mode == SimMode::Trace
        && (cfg_.layout.enabled || cfg_.energy.enabled);
}

LayerResult
Simulator::runLayer(const LayerSpec& layer, std::uint64_t layer_index)
{
    const SimProfiler::LayerStart start;
    LayerResult result = timingStage(
        layer, demandStage(layer, layer_index,
                           std::pmr::get_default_resource()));
    profiler_.chargeLayer(start);
    return result;
}

namespace
{

systolic::OperandMap
operandMap(const SimConfig& cfg, const LayerSpec& layer)
{
    return cfg.memory.im2colAddressing
        ? systolic::OperandMap::forLayer(layer, cfg.memory)
        : systolic::OperandMap(layer.toGemm(), cfg.memory);
}

/**
 * The generator of a layer's demand pass; none for a sparse OS/IS
 * layer, which has no demand stream.
 */
std::optional<systolic::DemandGenerator>
passGenerator(const SimConfig& cfg, const LayerSpec& layer,
              const sparse::SparseLayerModel& sparse_model,
              const systolic::OperandMap& operands)
{
    std::optional<systolic::DemandGenerator> generator;
    if (sparse_model.active()
        && cfg.dataflow != Dataflow::WeightStationary) {
        return generator;
    }
    generator.emplace(layer.toGemm(), cfg.dataflow, cfg.arrayRows,
                      cfg.arrayCols, operands,
                      sparse_model.active() ? &sparse_model.pattern()
                                            : nullptr);
    generator->setFoldCache(cfg.foldCache);
    return generator;
}

/** Bytes of fold captures the layer's demand pass takes (0: none). */
std::size_t
captureBytes(const SimConfig& cfg, const LayerSpec& layer,
             std::uint64_t layer_index)
{
    const sparse::SparseLayerModel sparse_model(layer, cfg.sparsity,
                                                layer_index);
    const auto generator = passGenerator(cfg, layer, sparse_model,
                                         operandMap(cfg, layer));
    return generator ? generator->captureBytes() : 0;
}

} // namespace

Simulator::LayerDemand
Simulator::demandStage(const LayerSpec& layer, std::uint64_t layer_index,
                       std::pmr::memory_resource* captures)
{
    LayerDemand demand;
    // 1. Sparsity resolution (§IV).
    {
        const auto prof = demand.profiler.scope(SimPhase::Sparsity);
        demand.sparse.emplace(layer, cfg_.sparsity, layer_index);
    }
    demand.operands = operandMap(cfg_, layer);

    // 2. Demand-driven passes: layout slowdown, exact energy action
    //    counts (trace mode) and the SRAM traces share one pass.
    const bool model_pass = modelPass();
    if (!model_pass && !sramTrace_)
        return demand;
    const auto generator = passGenerator(cfg_, layer, *demand.sparse,
                                         demand.operands);
    if (!generator)
        return demand;
    std::optional<layout::BankConflictEvaluator> layout_eval;
    std::optional<energy::ActionCountVisitor> action_visitor;
    std::vector<systolic::DemandVisitor*> sinks;
    if (model_pass && cfg_.layout.enabled) {
        layout_eval.emplace(
            cfg_.layout,
            layout::OperandLayouts::forOperands(
                demand.operands, cfg_.layout,
                layout::LayoutScheme::RowMajor));
        sinks.push_back(&*layout_eval);
    }
    if (model_pass && cfg_.energy.enabled) {
        action_visitor.emplace(cfg_.energy);
        sinks.push_back(&*action_visitor);
    }
    if (sramTrace_)
        sinks.push_back(sramTrace_.get());
    systolic::TeeVisitor tee(std::move(sinks));
    {
        const auto prof = demand.profiler.scope(SimPhase::DemandGen);
        generator->run(tee, captures);
    }
    // A pass run only for the SRAM traces leaves the counters alone.
    if (model_pass)
        demand.foldCache = generator->foldCacheStats();
    if (layout_eval)
        demand.layoutSlowdown = layout_eval->slowdown();
    if (action_visitor)
        demand.actions = action_visitor->counts();
    return demand;
}

LayerResult
Simulator::timingStage(const LayerSpec& layer, LayerDemand demand)
{
    profiler_.merge(demand.profiler);
    foldCacheStats_.merge(demand.foldCache);
    const dram::DramStats dram_before = dram_
        ? dram_->system().totalStats() : dram::DramStats{};
    LayerResult result;
    result.name = layer.name;
    result.repetitions = layer.repetitions;
    result.denseGemm = layer.toGemm();

    const sparse::SparseLayerModel& sparse_model = *demand.sparse;
    const systolic::OperandMap& operands = demand.operands;
    result.effectiveGemm = sparse_model.effectiveGemm();
    if (sparse_model.active())
        result.sparse = sparse_model.report(cfg_.memory.wordBytes * 8);
    const systolic::FoldGrid grid(result.effectiveGemm, cfg_.dataflow,
                                  cfg_.arrayRows, cfg_.arrayCols);
    // Compute utilization of the run that actually executes (the
    // effective, post-sparsity GEMM); the dense/effective gain is
    // reported separately as `speedup` so utilization stays <= 1.
    const double pe_cycles = static_cast<double>(grid.totalCycles())
        * static_cast<double>(cfg_.numPes());
    result.utilization = pe_cycles > 0.0
        ? static_cast<double>(result.effectiveGemm.macs()) / pe_cycles
        : 0.0;
    if (result.effectiveGemm.k != result.denseGemm.k
        && grid.totalCycles() > 0) {
        const systolic::FoldGrid dense_grid(result.denseGemm,
                                            cfg_.dataflow,
                                            cfg_.arrayRows,
                                            cfg_.arrayCols);
        result.speedup = static_cast<double>(dense_grid.totalCycles())
            / static_cast<double>(grid.totalCycles());
    }
    result.mappingEfficiency = grid.mappingEfficiency();
    result.layoutSlowdown = demand.layoutSlowdown;
    if (auditor_ && demand.actions) {
        // Audit the raw per-layer counts before stall/SIMD cycles and
        // sparse-metadata reads are folded in below; the
        // demand-agreement half only holds for the dense stream.
        auditor_->auditEnergyActions(*demand.actions, grid,
                                     !sparse_model.active(),
                                     result.name);
    }

    // 3. Memory-system timing (§V): fold-level prefetch scheduling
    //    against the configured main memory through finite queues. The
    //    running timeline keeps the memory model's clock aligned with
    //    compute across layers.
    scratchpad_->reset();
    {
        // The detailed DRAM model runs inside the timing pass; charge
        // the pass to whichever memory model is driving it.
        const auto prof = profiler_.scope(
            dram_ ? SimPhase::Dram : SimPhase::Scratchpad);
        result.timing = scratchpad_->runLayer(grid, operands, timeline_,
                                              result.layoutSlowdown);
    }
    result.computeCycles = result.timing.computeCycles;
    result.totalCycles = result.timing.totalCycles;
    result.stallCycles = result.timing.stallCycles;
    if (auditor_) {
        auditor_->auditStallAccounting(result.timing, result.name);
        auditor_->auditRuntimeEnvelope(result.timing, grid,
                                       result.layoutSlowdown,
                                       result.name);
        if (tracer_) {
            auditor_->auditTraceAgreement(tracer_->records(),
                                          result.timing, timeline_,
                                          result.name);
        }
        if (cfg_.mode == SimMode::Trace && !sparse_model.active()) {
            const auto prof = profiler_.scope(SimPhase::DemandGen);
            auditor_->auditFoldReplayFidelity(
                result.denseGemm, cfg_.dataflow, cfg_.arrayRows,
                cfg_.arrayCols, operands, result.name);
        }
    }
    if (tracer_) {
        systolic::writeMemTrace(*memTrace_, tracer_->records(), false);
        tracer_->clearRecords();
    }

    // Element-wise tail on the vector unit, serialized after the
    // matrix part (§III-C).
    multicore::SimdConfig simd;
    simd.lanes = cfg_.simdLanes;
    simd.latencyPerOp = cfg_.simdLatencyPerOp;
    if (layer.tail != VectorTail::None) {
        result.simdCycles = multicore::simdCycles(
            simd, layer.tail, result.denseGemm.m * result.denseGemm.n);
        result.totalCycles += result.simdCycles;
    }
    // Finalize the layer's CPI stack: the scratchpad attributed every
    // matrix-phase cycle; the serialized vector tail is its own
    // bucket, keeping cpi.total() == totalCycles.
    result.cpi = result.timing.cpi;
    result.cpi.vectorUnit = result.simdCycles;
    if (auditor_)
        auditor_->auditCpiStack(result.cpi, result.totalCycles,
                                result.name);
    timeline_ += result.timing.totalCycles
        * std::max<std::uint32_t>(1, layer.repetitions);

    // 4. Energy (§VII).
    if (cfg_.energy.enabled) {
        const auto prof = profiler_.scope(SimPhase::Energy);
        if (demand.actions) {
            result.actions = *demand.actions;
        } else {
            result.actions = energy::analyticalActionCounts(grid,
                                                            cfg_.energy);
            if (auditor_) {
                auditor_->auditEnergyActions(result.actions, grid, true,
                                             result.name);
            }
        }
        // Stall and vector-tail cycles burn static + idle energy too.
        result.actions.cycles += result.stallCycles
            + result.simdCycles;
        if (result.sparse) {
            // Compressed-format metadata (intra-block indices /
            // pointers) is read alongside the filter values (§IV-C).
            const std::uint64_t word_bits = std::max<std::uint32_t>(
                1, cfg_.memory.wordBytes) * 8;
            result.actions.filterSram.readRandom +=
                ceilDiv(result.sparse->metadataBits, word_bits);
        }
        if (layer.tail != VectorTail::None) {
            const std::uint64_t passes =
                layer.tail == VectorTail::Softmax ? simd.softmaxPasses
                                                  : 1;
            result.actions.vectorOps = result.denseGemm.m
                * result.denseGemm.n * passes;
        }
        result.actions.dramReadWords = result.timing.dramReadWords;
        result.actions.dramWriteWords = result.timing.dramWriteWords;
        result.energyBreakdown = energyModel_->energy(result.actions);
        if (dram_) {
            // Replace the flat per-word DRAM estimate with the
            // command-granular one derived from the controller stats.
            const dram::DramStats after = dram_->system().totalStats();
            result.energyBreakdown.dram =
                energyModel_->dramCommandEnergyPj(
                    after.rowMisses + after.rowConflicts
                        - dram_before.rowMisses
                        - dram_before.rowConflicts,
                    after.reads - dram_before.reads,
                    after.writes - dram_before.writes,
                    after.refreshes - dram_before.refreshes);
        }
        result.powerW = energyModel_->averagePowerW(
            result.energyBreakdown, result.totalCycles);
    }
    return result;
}

namespace
{

/**
 * Re-sum a run's layers independently of RunResult::addLayer's running
 * accumulation, so drift between the two bookkeeping paths is caught,
 * and check that the run's CPI stack sums to its cycles.
 */
void
auditRunTotals(check::InvariantAuditor& auditor, const RunResult& run)
{
    Cycle sum_total = 0, sum_compute = 0, sum_stall = 0;
    std::uint64_t sum_read = 0, sum_write = 0;
    for (const auto& l : run.layers) {
        const std::uint64_t reps = l.repetitions;
        sum_total += l.totalCycles * reps;
        sum_compute += l.computeCycles * reps;
        sum_stall += l.stallCycles * reps;
        sum_read += l.timing.dramReadWords * reps;
        sum_write += l.timing.dramWriteWords * reps;
    }
    auditor.auditRunTotals(run.totalCycles, run.computeCycles,
                           run.stallCycles, run.dramReadWords,
                           run.dramWriteWords, sum_total, sum_compute,
                           sum_stall, sum_read, sum_write, "run");
    auditor.auditCpiStack(run.cpiTotals, run.totalCycles, "run");
}

/**
 * Threads that run the demand stages of a run's jobs (its layers that
 * run one), starting them in job order ahead of the calling thread's
 * timing stages. Job j's fold captures take `bytes[j]` of `arena`: a
 * job starts only when that fits, first-fit, beside the jobs running,
 * and always when none runs, so the captures in flight never exceed
 * the largest job's. Each stage's result, or its exception, is handed
 * over through a promise. An exception starts no further job and is
 * handed to every job not started, so take() never waits on a job that
 * nothing runs. Destruction (also while an error unwinds the run) lets
 * the running stages finish, starts no more and joins the threads.
 */
template <class Demand>
class DemandWorkers
{
  public:
    template <class Stage>
    DemandWorkers(unsigned threads, std::span<std::byte> arena,
                  const std::vector<std::size_t>& bytes, Stage stage)
        : arena_(arena), bytes_(bytes), promises_(bytes.size())
    {
        futures_.reserve(promises_.size());
        for (std::promise<Demand>& promise : promises_)
            futures_.push_back(promise.get_future());
        threads_.reserve(threads);
        for (unsigned t = 0; t < threads; ++t)
            threads_.emplace_back([this, stage] { work(stage); });
    }
    /** The threads hold `this`. */
    DemandWorkers(const DemandWorkers&) = delete;
    DemandWorkers& operator=(const DemandWorkers&) = delete;

    ~DemandWorkers()
    {
        {
            const MutexLock lock(mutex_);
            stop_ = true;
        }
        changed_.notify_all();
    }

    /**
     * Wait for job j's demand stage; rethrows its exception. Spins
     * with yields instead of sleeping: on a 4-vCPU VM, a calling
     * thread that slept in the kernel during the run ran its
     * single-threaded work after the run up to 1.8x slower (perfbench
     * setup_s), and spinning restored the serial figure.
     */
    Demand
    take(std::size_t j)
    {
        while (futures_[j].wait_for(std::chrono::seconds(0))
               != std::future_status::ready) {
            std::this_thread::yield();
        }
        return futures_[j].get();
    }

    /** Join the threads after the last take(); their CPU seconds. */
    double
    join()
    {
        // Spin until every thread is done, for the reason take() spins.
        while (done_.load(std::memory_order_acquire) < threads_.size())
            std::this_thread::yield();
        threads_.clear();
        const MutexLock lock(mutex_);
        return cpuSeconds_;
    }

  private:
    /**
     * Whether the next job's captures fit beside the running jobs';
     * if so, `offset` is the first gap that holds them.
     */
    bool
    fits(std::size_t& offset) const SIM_REQUIRES(mutex_)
    {
        std::vector<Region> taken = running_;
        std::sort(taken.begin(), taken.end(),
                  [](const Region& a, const Region& b) {
                      return a.offset < b.offset;
                  });
        const std::size_t want = bytes_[next_];
        offset = 0;
        for (const Region& r : taken) {
            if (r.offset - offset >= want)
                return true;
            offset = r.offset + r.bytes;
        }
        return arena_.size() - offset >= want;
    }

    /**
     * Wait until the next job's captures fit and claim it; false once
     * every job has started or the workers stop.
     */
    bool
    start(std::size_t& job, std::size_t& offset) SIM_EXCLUDES(mutex_)
    {
        const MutexLock lock(mutex_);
        while (!stop_ && next_ < bytes_.size() && !fits(offset))
            changed_.wait(mutex_);
        if (stop_ || next_ == bytes_.size())
            return false;
        job = next_++;
        running_.push_back({job, offset, bytes_[job]});
        return true;
    }

    /** Release a job's region; an error fails every job not started. */
    void
    finish(std::size_t job, const std::exception_ptr& error)
        SIM_EXCLUDES(mutex_)
    {
        {
            const MutexLock lock(mutex_);
            std::erase_if(running_,
                          [&](const Region& r) { return r.job == job; });
            if (error) {
                stop_ = true;
                for (; next_ < bytes_.size(); ++next_)
                    promises_[next_].set_exception(error);
            }
        }
        changed_.notify_all();
    }

    template <class Stage>
    void
    work(const Stage& stage)
    {
        const double cpu_start = threadCpuSeconds();
        std::size_t job = 0, offset = 0;
        while (start(job, offset)) {
            std::exception_ptr error;
            try {
                promises_[job].set_value(
                    stage(job, arena_.subspan(offset, bytes_[job])));
            } catch (...) {
                error = std::current_exception();
                promises_[job].set_exception(error);
            }
            finish(job, error);
        }
        {
            const MutexLock lock(mutex_);
            cpuSeconds_ += threadCpuSeconds() - cpu_start;
        }
        done_.fetch_add(1, std::memory_order_release);
    }

    const std::span<std::byte> arena_;
    const std::vector<std::size_t> bytes_;
    std::vector<std::promise<Demand>> promises_;
    std::vector<std::future<Demand>> futures_;

    /** The arena bytes [offset, offset + bytes) a running job holds. */
    struct Region
    {
        std::size_t job;
        std::size_t offset;
        std::size_t bytes;
    };

    CheckedMutex mutex_;
    std::size_t next_ SIM_GUARDED_BY(mutex_) = 0; ///< next job to start
    std::vector<Region> running_ SIM_GUARDED_BY(mutex_);
    bool stop_ SIM_GUARDED_BY(mutex_) = false;
    double cpuSeconds_ SIM_GUARDED_BY(mutex_) = 0.0;
    std::condition_variable_any changed_;

    std::atomic<std::size_t> done_{0};
    /** Last member, so they are joined before the others are destroyed. */
    std::vector<std::jthread> threads_;
};

} // namespace

void
Simulator::runLayers(const Topology& topology,
                     const std::vector<std::size_t>& indices,
                     const LayerDone& done)
{
    // Plan: with a demand pass, a layer whose shape an earlier layer of
    // this call has takes a copy of that layer's demand instead of
    // running its own (DESIGN.md "Run pipeline"). demandStage reads only
    // cfg_, the shape and, for sparsity, the index, so the copy is the
    // demand the stage would make (the name in its dense sparse model
    // is never read). Off with sparsity (row-wise patterns seed on the
    // index) and with SRAM traces (they need the stream).
    const std::size_t n = indices.size();
    std::vector<std::size_t> source(n);
    std::vector<std::size_t> repeats(n, 0);
    const bool pass = modelPass() || sramTrace_;
    const bool reuse = modelPass() && !sramTrace_ && !cfg_.sparsity.enabled;
    std::vector<std::size_t> jobs; // positions that run demandStage
    for (std::size_t k = 0; k < n; ++k) {
        source[k] = k;
        if (reuse) {
            const auto shape = topology.layers[indices[k]].shapeFields();
            for (std::size_t j = 0; j < k; ++j) {
                if (source[j] == j
                    && topology.layers[indices[j]].shapeFields() == shape) {
                    source[k] = j;
                    ++repeats[j];
                    break;
                }
            }
        }
        if (source[k] == k)
            jobs.push_back(k);
    }
    // Each job's fold captures, sized in advance, go to a region of the
    // capture arena, which holds the largest. A job whose sizing fails
    // rethrows that error from its stage, so it surfaces in layer order.
    std::vector<std::size_t> bytes(jobs.size(), 0);
    std::vector<std::exception_ptr> errors(jobs.size());
    for (std::size_t j = 0; pass && j < jobs.size(); ++j) {
        const std::size_t i = indices[jobs[j]];
        try {
            bytes[j] = captureBytes(cfg_, topology.layers[i], i);
        } catch (...) {
            errors[j] = std::current_exception();
        }
    }
    const std::size_t most = jobs.empty()
        ? 0 : *std::max_element(bytes.begin(), bytes.end());
    if (most > 0) {
        if (!captures_)
            captures_ = std::make_unique<systolic::CaptureArena>();
        captures_->reserve(most);
        profiler_.noteCaptureBytes(most);
    }
    const std::span<std::byte> arena = captures_
        ? std::span<std::byte>(captures_->data(), captures_->size())
        : std::span<std::byte>();
    auto stage = [&](std::size_t j, std::span<std::byte> region) {
        if (errors[j])
            std::rethrow_exception(errors[j]);
        std::pmr::monotonic_buffer_resource captures(
            region.data(), region.size(), std::pmr::null_memory_resource());
        const std::size_t i = indices[jobs[j]];
        return demandStage(topology.layers[i], i, &captures);
    };

    // Pipeline: with a demand pass, up to two demand workers, one
    // fewer than the host's threads (SCALESIM_JOBS, else hardware), run
    // the jobs while this thread runs the timing stages in layer order,
    // so later layers' demand overlaps timing k. Every stateful
    // component is still touched in layer order on this thread. A run
    // with SRAM traces keeps one worker: its trace writer takes the
    // layers in order. On a parallelFor worker the cores are already
    // busy, so both stages run here.
    std::optional<DemandWorkers<LayerDemand>> workers;
    if (pass && !jobs.empty() && !onParallelWorker()) {
        const unsigned threads = sramTrace_
            ? 1 : std::clamp(resolveJobs(0), 2u, 3u) - 1;
        workers.emplace(static_cast<unsigned>(std::min<std::size_t>(
                            threads, jobs.size())),
                        arena, bytes, stage);
    }
    // Demands kept for their repeats, freed after the last one.
    std::vector<std::optional<LayerDemand>> kept(n);
    std::size_t job = 0;
    for (std::size_t k = 0; k < n; ++k) {
        const std::size_t i = indices[k];
        const SimProfiler::LayerStart start;
        LayerDemand demand;
        if (source[k] == k) {
            demand = workers ? workers->take(job)
                             : stage(job, arena.first(bytes[job]));
            ++job;
            if (repeats[k] > 0) {
                kept[k] = demand;
                kept[k]->profiler.reset();
            }
        } else {
            const std::size_t first = source[k];
            demand = repeats[first] > 1 ? *kept[first]
                                        : std::move(*kept[first]);
            if (--repeats[first] == 0)
                kept[first].reset();
            demand.profiler.countReuse();
        }
        LayerResult result = timingStage(topology.layers[i],
                                         std::move(demand));
        profiler_.chargeLayer(start);
        done(i, std::move(result));
    }
    if (workers)
        profiler_.chargeCpu(workers->join());
}

void
Simulator::runIsolated(const Topology& topology,
                       const std::vector<std::size_t>& indices,
                       const LayerDone& done)
{
    // Components as built need no rebuild; used ones do. The rebuild
    // after each layer's `done` comes before the next timing stage and
    // is safe beside the demand worker: demandStage reads only cfg_
    // and sramTrace_, and rebuild() touches neither. The last layer's
    // state stays behind, so a later run or call starts fresh.
    if (ranOnce_)
        rebuild();
    ranOnce_ = true;
    std::size_t left = indices.size();
    runLayers(topology, indices, [&](std::size_t i, LayerResult&& result) {
        done(i, std::move(result));
        if (--left > 0)
            rebuild();
    });
}

RunResult
Simulator::run(const Topology& topology)
{
    // A second run() on the same object must be bit-identical to a run
    // on a freshly constructed Simulator: without this, DRAM stats and
    // row-buffer state, the running timeline, and fold-cache counters
    // all leak from the first run into the second.
    if (ranOnce_)
        reset();
    ranOnce_ = true;
    RunResult run;
    run.runName = cfg_.runName;
    run.workload = topology.name;
    run.layers.reserve(topology.layers.size());

    // Periodic registry snapshots along the simulated timeline. The
    // snapshot combines the run-level partial totals with the
    // cumulative component state, under the same names the final
    // registry uses, so time-series columns line up with stats.json.
    obs::IntervalSampler sampler(cfg_.intervalCycles);
    auto snapshot = [&](obs::StatsRegistry& snap) {
        run.registerTotals(snap);
        registerStats(snap);
    };

    std::vector<std::size_t> all(topology.layers.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    runLayers(topology, all, [&](std::size_t, LayerResult&& result) {
        run.addLayer(std::move(result), cfg_.energy.enabled);
        if (sampler.enabled()) {
            obs::StatsRegistry snap;
            snapshot(snap);
            sampler.sample(timeline_, snap);
        }
    });
    if (sampler.enabled()) {
        obs::StatsRegistry snap;
        snapshot(snap);
        sampler.finish(timeline_, snap);
        run.intervals = sampler.takeSeries();
    }
    // Layout slowdown and SRAM traces come only from the demand pass,
    // which sparse OS/IS layers skip; unlike energy neither has an
    // analytical fallback, so say when they are missing.
    const auto sparse_layers = std::count_if(
        run.layers.begin(), run.layers.end(),
        [](const LayerResult& l) { return l.sparse.has_value(); });
    const bool sparse_skipped = cfg_.dataflow != Dataflow::WeightStationary
        && sparse_layers > 0;
    if (sramTrace_ && sparse_skipped) {
        warn("SRAM traces skip %td sparse layer(s): sparse %s layers "
             "have no demand stream",
             sparse_layers, toString(cfg_.dataflow).c_str());
    }
    if (cfg_.layout.enabled) {
        if (cfg_.mode != SimMode::Trace) {
            warn("LayoutModel ignored: the layout model needs trace "
                 "mode; layoutSlowdown stays 1.0");
        } else if (sparse_skipped) {
            warn("LayoutModel ignored on %td sparse layer(s): sparse "
                 "%s layers have no demand trace; their layoutSlowdown "
                 "stays 1.0",
                 sparse_layers, toString(cfg_.dataflow).c_str());
        }
    }
    // Main memory is either the DRAM model or the pure-bandwidth model;
    // the second's rate is unused beside the first.
    if (cfg_.dram.enabled
        && cfg_.memory.bandwidthWordsPerCycle
            != MemoryConfig{}.bandwidthWordsPerCycle) {
        warn("[architecture] Bandwidth ignored: with [memory] "
             "DramModel = true the DRAM model times main memory");
    }
    if (cfg_.energy.enabled && energyModel_) {
        run.avgPowerW = energyModel_->averagePowerW(run.totalEnergy,
                                                    run.totalCycles);
        run.edp = energyModel_->edp(run.totalEnergy, run.totalCycles);
    }
    if (dram_)
        run.dramStats = dram_->system().totalStats();
    run.profile = profiler_.snapshot();
    if (auditor_) {
        auditRunTotals(*auditor_, run);
        auditor_->auditFoldCacheConservation(foldCacheStats_, "run");
        auditor_->auditMemoryTraffic(scratchpad_->totals(),
                                     memory_->stats(), "run");
        if (dram_)
            auditor_->auditDramSystem(dram_->system(), "dram");
        run.audited = true;
        run.audit = auditor_->report();
    }
    run.registerStats(run.stats);
    registerStats(run.stats);
    return run;
}

RunResult
runMultiCore(const SimConfig& cfg, std::uint64_t pr, std::uint64_t pc,
             const Topology& topology)
{
    cfg.validate();
    const multicore::MultiCoreTraceConfig mc =
        multicore::multiCoreTraceConfig(cfg, pr, pc);
    multicore::MultiCoreTraceSimulator sim(mc);
    for (const std::string& name : systolic::multiCoreIgnoredFeatures(cfg))
        warn("%s is not modeled by the multi-core run; ignored",
             name.c_str());

    RunResult run;
    run.runName = cfg.runName;
    run.workload = topology.name;
    std::optional<check::InvariantAuditor> auditor;
    if (cfg.audit)
        auditor.emplace();
    SimProfiler profiler;
    const double pes = static_cast<double>(pr * pc * cfg.numPes());
    std::uint64_t conflicts = 0;
    for (std::size_t i = 0; i < topology.layers.size(); ++i) {
        const LayerSpec& spec = topology.layers[i];
        const SimProfiler::LayerStart start;
        const multicore::MultiCoreTraceResult res = sim.runLayer(spec);
        profiler.charge(SimPhase::Scratchpad, profiler.chargeLayer(start));
        const std::string scope = "mc.l" + std::to_string(i);
        res.registerStats(run.stats, scope);
        if (auditor) {
            auditor->auditArbiter(res, mc.useL2, scope);
            for (std::size_t c = 0; c < res.perCore.size(); ++c) {
                const std::string core = scope + ".core"
                    + std::to_string(c);
                auditor->auditStallAccounting(res.perCore[c], core);
                auditor->auditCpiStack(res.perCore[c].cpi,
                                       res.perCore[c].totalCycles, core);
            }
        }
        conflicts += res.arb.arbConflicts * spec.repetitions;

        // The slowest core sets the layer's time; on a tie the lowest
        // index, as std::max_element keeps the first maximum.
        LayerResult layer;
        layer.name = spec.name;
        layer.repetitions = spec.repetitions;
        layer.denseGemm = layer.effectiveGemm = spec.toGemm();
        layer.timing = *std::max_element(
            res.perCore.begin(), res.perCore.end(),
            [](const auto& a, const auto& b) {
                return a.totalCycles < b.totalCycles;
            });
        layer.timing.dramReadWords = res.dramReadWords;
        layer.timing.dramWriteWords = res.dramWriteWords;
        layer.computeCycles = layer.timing.computeCycles;
        layer.totalCycles = layer.timing.totalCycles;
        layer.stallCycles = layer.timing.stallCycles;
        layer.cpi = layer.timing.cpi;
        layer.utilization = static_cast<double>(layer.denseGemm.macs())
            / std::max(1.0, static_cast<double>(layer.totalCycles) * pes);
        run.addLayer(std::move(layer), false);
    }
    run.stats.addScalar("mc.arbConflicts",
                        "same-cycle shared L2/DRAM port collisions, "
                        "weighted by repetitions",
                        static_cast<double>(conflicts));
    run.profile = profiler.snapshot();
    run.profile.layersReused = sim.layersReused();
    if (auditor) {
        auditRunTotals(*auditor, run);
        run.audited = true;
        run.audit = auditor->report();
    }
    run.registerStats(run.stats);
    return run;
}

void
Simulator::registerStats(obs::StatsRegistry& reg) const
{
    if (dram_)
        dram_->system().registerStats(reg, "dram");
    scratchpad_->registerStats(reg, "spad");

    // Fold-replay demand cache. These counters describe the
    // simulator's own work, not the modeled hardware: they are the
    // only stats allowed to differ between foldCache on/off runs.
    reg.addScalar("sim.foldCache.folds", "demand folds generated",
                  static_cast<double>(foldCacheStats_.foldsTotal));
    reg.addScalar("sim.foldCache.replayed",
                  "folds replayed from a cached canonical fold",
                  static_cast<double>(foldCacheStats_.foldsReplayed));
    reg.addScalar("sim.foldCache.live",
                  "folds generated live (captures + fallbacks)",
                  static_cast<double>(foldCacheStats_.foldsLive));
    reg.addScalar("sim.foldCache.addrsReplayed",
                  "addresses emitted from cache arenas",
                  static_cast<double>(foldCacheStats_.addrsReplayed));
    reg.addScalar("sim.foldCache.bytesSaved",
                  "address bytes that skipped live generation",
                  static_cast<double>(foldCacheStats_.bytesSaved()));
    obs::FormulaSpec hit_rate;
    hit_rate.numerator = {{"sim.foldCache.replayed", 1.0}};
    hit_rate.denominator = {{"sim.foldCache.folds", 1.0}};
    reg.addFormula("sim.foldCache.hitRate",
                   "replayed / folds", hit_rate);

    const systolic::MemoryStats& mem = memory_->stats();
    reg.addScalar("mem.readRequests", "main-memory read requests",
                  static_cast<double>(mem.readRequests));
    reg.addScalar("mem.writeRequests", "main-memory write requests",
                  static_cast<double>(mem.writeRequests));
    reg.addScalar("mem.readWords", "main-memory words read",
                  static_cast<double>(mem.readWords));
    reg.addScalar("mem.writeWords", "main-memory words written",
                  static_cast<double>(mem.writeWords));
    reg.addScalar("mem.totalReadLatency",
                  "summed read round-trips (core cycles)",
                  static_cast<double>(mem.totalReadLatency));
    obs::FormulaSpec read_lat;
    read_lat.numerator = {{"mem.totalReadLatency", 1.0}};
    read_lat.denominator = {{"mem.readRequests", 1.0}};
    reg.addFormula("mem.avgReadLatency",
                   "mean read round-trip (core cycles)", read_lat);
}

namespace
{

std::string
fmtDouble(double v)
{
    return format("%.4f", v);
}

} // namespace

void
RunResult::writeSummary(std::ostream& out) const
{
    auto stat = [&](const char* name, const std::string& value,
                    const char* desc) {
        out << format("%-32s %20s  # %s\n", name, value.c_str(), desc);
    };
    out << "---------- " << runName << " on " << workload
        << " ----------\n";
    stat("sim.layers", std::to_string(layers.size()),
         "distinct layers simulated");
    stat("sim.totalCycles", std::to_string(totalCycles),
         "wall-clock cycles incl. stalls");
    stat("sim.computeCycles", std::to_string(computeCycles),
         "ideal compute cycles");
    stat("sim.stallCycles", std::to_string(stallCycles),
         "memory stall cycles");
    stat("sim.stallFraction",
         format("%.4f", totalCycles ? static_cast<double>(stallCycles)
                    / totalCycles : 0.0),
         "stalls / total");
    stat("mem.dramReadWords", std::to_string(dramReadWords),
         "main-memory words read");
    stat("mem.dramWriteWords", std::to_string(dramWriteWords),
         "main-memory words written");
    if (dramStats.reads + dramStats.writes > 0) {
        stat("dram.rowHitRate", format("%.4f", dramStats.rowHitRate()),
             "row-buffer hit rate");
        stat("dram.avgReadLatency",
             format("%.2f", dramStats.avgReadLatency()),
             "memory clocks");
        stat("dram.refreshes", std::to_string(dramStats.refreshes),
             "all-bank refreshes");
    }
    if (totalEnergy.totalPj() > 0.0) {
        stat("energy.total_mJ", format("%.4f", totalEnergy.totalMj()),
             "total incl. DRAM");
        stat("energy.onChip_mJ",
             format("%.4f", totalEnergy.onChipMj()),
             "PE + GLB + NoC + static");
        stat("energy.avgPower_W", format("%.4f", avgPowerW),
             "average power");
        stat("energy.edp", format("%.4g", edp), "cycles x mJ");
    }
    if (audited) {
        stat("sim.audit.checks", std::to_string(audit.checks()),
             "invariant relations evaluated");
        stat("sim.audit.violations",
             std::to_string(audit.violations().size()),
             "conservation laws found broken");
        audit.writeReport(out);
    }
    if (profile.layersProfiled > 0)
        profile.writeReport(out);
}

void
RunResult::writeComputeReport(std::ostream& out) const
{
    CsvWriter csv(out);
    csv.writeRow({"LayerID", "LayerName", "Reps", "M", "N", "K",
                  "EffK", "ComputeCycles", "StallCycles", "SimdCycles",
                  "TotalCycles", "Utilization", "Speedup",
                  "MappingEfficiency", "LayoutSlowdown"});
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const auto& l = layers[i];
        csv.writeRow({std::to_string(i), l.name,
                      std::to_string(l.repetitions),
                      std::to_string(l.denseGemm.m),
                      std::to_string(l.denseGemm.n),
                      std::to_string(l.denseGemm.k),
                      std::to_string(l.effectiveGemm.k),
                      std::to_string(l.computeCycles),
                      std::to_string(l.stallCycles),
                      std::to_string(l.simdCycles),
                      std::to_string(l.totalCycles),
                      fmtDouble(l.utilization),
                      fmtDouble(l.speedup),
                      fmtDouble(l.mappingEfficiency),
                      fmtDouble(l.layoutSlowdown)});
    }
}

void
RunResult::writePowerReport(std::ostream& out) const
{
    CsvWriter csv(out);
    csv.writeRow({"Epoch", "Layer", "StartCycle", "Cycles", "Power_W"});
    Cycle start = 0;
    for (std::size_t i = 0; i < powerTrace.size(); ++i) {
        const auto& sample = powerTrace[i];
        csv.writeRow({std::to_string(i), sample.label,
                      std::to_string(start),
                      std::to_string(sample.cycles),
                      fmtDouble(sample.powerW)});
        start += sample.cycles;
    }
    csv.writeRow({"AVG", "", "", std::to_string(totalCycles),
                  fmtDouble(avgPowerW)});
}

void
RunResult::writeBandwidthReport(std::ostream& out) const
{
    CsvWriter csv(out);
    csv.writeRow({"LayerID", "LayerName", "DramReadWords",
                  "DramWriteWords", "AvgReadBW_words_per_cycle",
                  "AvgWriteBW_words_per_cycle", "AvgReadLatency",
                  "ReadQueueStalls", "WriteQueueStalls"});
    for (std::size_t i = 0; i < layers.size(); ++i) {
        const auto& l = layers[i];
        csv.writeRow({std::to_string(i), l.name,
                      std::to_string(l.timing.dramReadWords),
                      std::to_string(l.timing.dramWriteWords),
                      fmtDouble(l.timing.readBandwidth()),
                      fmtDouble(l.timing.writeBandwidth()),
                      fmtDouble(l.timing.avgReadLatency),
                      std::to_string(l.timing.readQueueStalls),
                      std::to_string(l.timing.writeQueueStalls)});
    }
}

void
RunResult::writeSparseReport(std::ostream& out) const
{
    CsvWriter csv(out);
    csv.writeRow({"LayerName", "SparsityRep", "RatioN", "RatioM",
                  "DenseK", "CompressedK", "OriginalFilterBits",
                  "NewFilterBits", "MetadataBits"});
    for (const auto& l : layers) {
        if (!l.sparse)
            continue;
        const auto& s = *l.sparse;
        csv.writeRow({s.layerName, s.representation,
                      std::to_string(s.ratioN), std::to_string(s.ratioM),
                      std::to_string(s.denseK),
                      std::to_string(s.compressedK),
                      std::to_string(s.originalFilterBits),
                      std::to_string(s.newFilterBits),
                      std::to_string(s.metadataBits)});
    }
}

void
RunResult::writeEnergyReport(std::ostream& out) const
{
    CsvWriter csv(out);
    csv.writeRow({"LayerName", "PEArray_pJ", "GLB_pJ", "NoC_pJ",
                  "DRAM_pJ", "Static_pJ", "Total_pJ", "Power_W"});
    for (const auto& l : layers) {
        const auto& e = l.energyBreakdown;
        csv.writeRow({l.name, fmtDouble(e.peArray), fmtDouble(e.glb),
                      fmtDouble(e.noc), fmtDouble(e.dram),
                      fmtDouble(e.staticE), fmtDouble(e.totalPj()),
                      fmtDouble(l.powerW)});
    }
    csv.writeRow({"TOTAL", fmtDouble(totalEnergy.peArray),
                  fmtDouble(totalEnergy.glb), fmtDouble(totalEnergy.noc),
                  fmtDouble(totalEnergy.dram),
                  fmtDouble(totalEnergy.staticE),
                  fmtDouble(totalEnergy.totalPj()),
                  fmtDouble(avgPowerW)});
}

void
RunResult::addLayer(LayerResult layer, bool energy)
{
    const std::uint64_t reps = layer.repetitions;
    totalCycles += layer.totalCycles * reps;
    computeCycles += layer.computeCycles * reps;
    stallCycles += layer.stallCycles * reps;
    dramReadWords += layer.timing.dramReadWords * reps;
    dramWriteWords += layer.timing.dramWriteWords * reps;
    cpiTotals.accumulate(layer.cpi, reps);
    if (energy) {
        energy::EnergyBreakdown scaled = layer.energyBreakdown;
        scaled.peArray *= static_cast<double>(reps);
        scaled.glb *= static_cast<double>(reps);
        scaled.noc *= static_cast<double>(reps);
        scaled.dram *= static_cast<double>(reps);
        scaled.staticE *= static_cast<double>(reps);
        totalEnergy.merge(scaled);
        // One instantaneous-power sample per layer instance.
        for (std::uint64_t r = 0; r < reps; ++r) {
            powerTrace.push_back(
                {layer.name, layer.totalCycles, layer.powerW});
        }
    }
    layers.push_back(std::move(layer));
}

void
RunResult::registerTotals(obs::StatsRegistry& reg) const
{
    reg.addScalar("sim.totalCycles", "wall-clock cycles incl. stalls",
                  static_cast<double>(totalCycles));
    reg.addScalar("sim.computeCycles", "ideal compute cycles",
                  static_cast<double>(computeCycles));
    reg.addScalar("sim.stallCycles", "memory stall cycles",
                  static_cast<double>(stallCycles));
    reg.addScalar("sim.dramReadWords", "main-memory words read",
                  static_cast<double>(dramReadWords));
    reg.addScalar("sim.dramWriteWords", "main-memory words written",
                  static_cast<double>(dramWriteWords));
    cpiTotals.registerStats(
        reg, "sim.cpistack",
        "per-cause cycle attribution (sums to totalCycles)");
}

void
RunResult::registerStats(obs::StatsRegistry& reg) const
{
    reg.addScalar("sim.layers", "distinct layers simulated",
                  static_cast<double>(layers.size()));
    registerTotals(reg);
    obs::FormulaSpec stall_frac;
    stall_frac.numerator = {{"sim.stallCycles", 1.0}};
    stall_frac.denominator = {{"sim.totalCycles", 1.0}};
    reg.addFormula("sim.stallFraction", "stalls / total", stall_frac);

    if (audited)
        audit.registerStats(reg);

    std::uint64_t sparse_layers = 0, dense_k = 0, compressed_k = 0;
    std::uint64_t original_bits = 0, new_bits = 0, metadata_bits = 0;
    for (const auto& l : layers) {
        if (!l.sparse)
            continue;
        ++sparse_layers;
        dense_k += l.sparse->denseK;
        compressed_k += l.sparse->compressedK;
        original_bits += l.sparse->originalFilterBits;
        new_bits += l.sparse->newFilterBits;
        metadata_bits += l.sparse->metadataBits;
    }
    if (sparse_layers > 0) {
        reg.addScalar("sparse.layers", "layers with sparse filters",
                      static_cast<double>(sparse_layers));
        reg.addScalar("sparse.denseK", "summed dense K",
                      static_cast<double>(dense_k));
        reg.addScalar("sparse.compressedK", "summed compressed K",
                      static_cast<double>(compressed_k));
        reg.addScalar("sparse.originalFilterBits",
                      "dense filter storage (bits)",
                      static_cast<double>(original_bits));
        reg.addScalar("sparse.newFilterBits",
                      "compressed values + metadata (bits)",
                      static_cast<double>(new_bits));
        reg.addScalar("sparse.metadataBits", "metadata storage (bits)",
                      static_cast<double>(metadata_bits));
        obs::FormulaSpec compression;
        compression.numerator = {{"sparse.originalFilterBits", 1.0}};
        compression.denominator = {{"sparse.newFilterBits", 1.0}};
        reg.addFormula("sparse.compressionRatio",
                       "dense / compressed filter bits", compression);
    }

    if (totalEnergy.totalPj() > 0.0) {
        const char* desc = "energy by component (pJ)";
        reg.addVectorElem("energy.breakdown_pJ", "peArray", desc,
                          totalEnergy.peArray);
        reg.addVectorElem("energy.breakdown_pJ", "glb", desc,
                          totalEnergy.glb);
        reg.addVectorElem("energy.breakdown_pJ", "noc", desc,
                          totalEnergy.noc);
        reg.addVectorElem("energy.breakdown_pJ", "dram", desc,
                          totalEnergy.dram);
        reg.addVectorElem("energy.breakdown_pJ", "static", desc,
                          totalEnergy.staticE);
        reg.addScalar("energy.avgPower_W", "average power (W)",
                      avgPowerW);
        reg.addScalar("energy.edp", "energy-delay product (cycles x mJ)",
                      edp);
    }
}

void
RunResult::writeStats(std::ostream& out) const
{
    stats.dump(out);
}

void
RunResult::writeStatsJson(std::ostream& out) const
{
    stats.dumpJson(out);
}

namespace
{

void
writeTimingJson(obs::JsonWriter& json, const systolic::LayerTiming& t)
{
    json.beginObject();
    json.field("folds", static_cast<std::uint64_t>(t.folds));
    json.field("prefetchStallCycles", t.prefetchStallCycles);
    json.field("drainStallCycles", t.drainStallCycles);
    json.field("bandwidthStallCycles", t.bandwidthStallCycles);
    json.field("dramReadWords", t.dramReadWords);
    json.field("dramWriteWords", t.dramWriteWords);
    json.field("dramReadRequests", static_cast<std::uint64_t>(
        t.dramReadRequests));
    json.field("dramWriteRequests", static_cast<std::uint64_t>(
        t.dramWriteRequests));
    json.field("avgReadLatency", t.avgReadLatency);
    json.field("readQueueStalls", t.readQueueStalls);
    json.field("writeQueueStalls", t.writeQueueStalls);
    json.field("readBandwidth", t.readBandwidth());
    json.field("writeBandwidth", t.writeBandwidth());
    json.endObject();
}

void
writeCpiJson(obs::JsonWriter& json, const obs::CpiStack& cpi)
{
    json.beginObject();
    for (unsigned i = 0; i < obs::CpiStack::kBucketCount; ++i)
        json.field(obs::CpiStack::bucketName(i), cpi.bucketValue(i));
    json.field("total", cpi.total());
    json.endObject();
}

void
writeEnergyJson(obs::JsonWriter& json,
                const energy::EnergyBreakdown& e)
{
    json.beginObject();
    json.field("peArray_pJ", e.peArray);
    json.field("glb_pJ", e.glb);
    json.field("noc_pJ", e.noc);
    json.field("dram_pJ", e.dram);
    json.field("static_pJ", e.staticE);
    json.field("total_pJ", e.totalPj());
    json.endObject();
}

} // namespace

void
RunResult::writeJson(std::ostream& out) const
{
    obs::JsonWriter json(out);
    json.beginObject();
    json.field("runName", runName);
    json.field("workload", workload);

    json.key("totals").beginObject();
    json.field("totalCycles", totalCycles);
    json.field("computeCycles", computeCycles);
    json.field("stallCycles", stallCycles);
    json.field("stallFraction",
               totalCycles ? static_cast<double>(stallCycles)
                   / static_cast<double>(totalCycles) : 0.0);
    json.field("dramReadWords", dramReadWords);
    json.field("dramWriteWords", dramWriteWords);
    json.key("cpiStack");
    writeCpiJson(json, cpiTotals);
    json.endObject();

    const bool dram_active = dramStats.reads + dramStats.writes > 0;
    json.key("dram").beginObject();
    json.field("modeled", dram_active);
    json.field("reads", static_cast<std::uint64_t>(dramStats.reads));
    json.field("writes", static_cast<std::uint64_t>(dramStats.writes));
    json.field("rowHits", static_cast<std::uint64_t>(dramStats.rowHits));
    json.field("rowMisses", static_cast<std::uint64_t>(
        dramStats.rowMisses));
    json.field("rowConflicts", static_cast<std::uint64_t>(
        dramStats.rowConflicts));
    json.field("refreshes", static_cast<std::uint64_t>(
        dramStats.refreshes));
    json.field("readBytes", dramStats.readBytes);
    json.field("writeBytes", dramStats.writeBytes);
    json.field("rowHitRate", dramStats.rowHitRate());
    json.field("avgReadLatency", dramStats.avgReadLatency());
    json.endObject();

    if (totalEnergy.totalPj() > 0.0) {
        json.key("energy").beginObject();
        json.key("breakdown");
        writeEnergyJson(json, totalEnergy);
        json.field("total_mJ", totalEnergy.totalMj());
        json.field("onChip_mJ", totalEnergy.onChipMj());
        json.field("avgPower_W", avgPowerW);
        json.field("edp", edp);
        json.endObject();
    }

    if (audited) {
        json.key("audit").beginObject();
        json.field("checks", audit.checks());
        json.field("clean", audit.clean());
        json.key("violations").beginArray();
        for (const auto& v : audit.violations()) {
            json.beginObject();
            json.field("law", v.law);
            json.field("scope", v.scope);
            json.field("message", v.message);
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }

    json.key("layers").beginArray();
    for (const auto& l : layers) {
        json.beginObject();
        json.field("name", l.name);
        json.field("repetitions", l.repetitions);
        json.key("gemm").beginObject();
        json.field("m", l.denseGemm.m);
        json.field("n", l.denseGemm.n);
        json.field("k", l.denseGemm.k);
        json.field("effectiveK", l.effectiveGemm.k);
        json.endObject();
        json.field("computeCycles", l.computeCycles);
        json.field("simdCycles", l.simdCycles);
        json.field("totalCycles", l.totalCycles);
        json.field("stallCycles", l.stallCycles);
        json.field("utilization", l.utilization);
        json.field("speedup", l.speedup);
        json.field("mappingEfficiency", l.mappingEfficiency);
        json.field("layoutSlowdown", l.layoutSlowdown);
        json.key("cpiStack");
        writeCpiJson(json, l.cpi);
        json.key("timing");
        writeTimingJson(json, l.timing);
        if (l.sparse) {
            const auto& s = *l.sparse;
            json.key("sparse").beginObject();
            json.field("representation", s.representation);
            json.field("ratioN", s.ratioN);
            json.field("ratioM", s.ratioM);
            json.field("denseK", s.denseK);
            json.field("compressedK", s.compressedK);
            json.field("originalFilterBits", s.originalFilterBits);
            json.field("newFilterBits", s.newFilterBits);
            json.field("metadataBits", s.metadataBits);
            json.endObject();
        }
        if (l.energyBreakdown.totalPj() > 0.0) {
            json.key("energy");
            writeEnergyJson(json, l.energyBreakdown);
            json.field("power_W", l.powerW);
        }
        json.endObject();
    }
    json.endArray();

    if (!powerTrace.empty()) {
        json.key("powerTrace").beginArray();
        for (const auto& sample : powerTrace) {
            json.beginObject();
            json.field("layer", sample.label);
            json.field("cycles", sample.cycles);
            json.field("power_W", sample.powerW);
            json.endObject();
        }
        json.endArray();
    }

    json.key("profile").beginObject();
    json.field("layersProfiled", profile.layersProfiled);
    json.field("layersReused", profile.layersReused);
    json.field("captureBytes", profile.captureBytes);
    json.field("totalSeconds", profile.totalSeconds);
    json.field("cpuSeconds", profile.cpuSeconds);
    json.field("peakRssKb", profile.peakRssKb);
    json.key("phaseSeconds").beginObject();
    for (unsigned p = 0; p < kNumSimPhases; ++p) {
        json.field(toString(static_cast<SimPhase>(p)),
                   profile.phaseSeconds[p]);
    }
    json.field("other", profile.otherSeconds());
    json.endObject();
    json.endObject();

    json.endObject();
    out << '\n';
}

void
RunResult::writeChromeTrace(std::ostream& out) const
{
    obs::TraceBuilder trace;
    trace.setProcessName(0, runName.empty() ? "accelerator" : runName);
    trace.setThreadName(0, 0, "layers");
    trace.setThreadName(0, 1, "phases");
    bool any_folds = false;
    for (const auto& l : layers)
        any_folds = any_folds || !l.timing.foldSpans.empty();
    if (any_folds)
        trace.setThreadName(0, 2, "folds");
    trace.addMetadata("workload", workload);
    trace.addMetadata("timeUnit", "1 trace us = 1 accelerator cycle");

    Cycle now = 0;
    for (const auto& l : layers) {
        const std::uint64_t reps = std::max<std::uint32_t>(
            1, l.repetitions);
        const Cycle all_reps = l.totalCycles * reps;
        trace.addSpan(0, 0, l.name, "layer", now,
                      std::max<Cycle>(1, all_reps),
                      {{"repetitions", static_cast<double>(reps)},
                       {"utilization", l.utilization},
                       {"stallCycles",
                        static_cast<double>(l.stallCycles * reps)}});
        // Phase spans cover the first instance only; repetitions
        // replay the same schedule.
        const Cycle matrix = l.timing.totalCycles;
        trace.addSpan(0, 1, "matrix", "phase", now,
                      std::max<Cycle>(1, matrix),
                      {{"computeCycles",
                        static_cast<double>(l.computeCycles)},
                       {"stallCycles",
                        static_cast<double>(l.stallCycles)}});
        if (l.simdCycles > 0) {
            trace.addSpan(0, 1, "vector_tail", "phase", now + matrix,
                          std::max<Cycle>(1, l.simdCycles));
        }
        for (const auto& span : l.timing.foldSpans) {
            trace.addSpan(0, 2, "fold", "fold", now + span.start,
                          std::max<Cycle>(1, span.end - span.start),
                          {{"rowFold", static_cast<double>(
                                span.rowFold)},
                           {"colFold", static_cast<double>(
                                span.colFold)}});
        }
        trace.addCounter(0, "utilization", now, "util", l.utilization);
        if (l.powerW > 0.0)
            trace.addCounter(0, "power_W", now, "power", l.powerW);
        now += all_reps;
    }
    // Close every counter track at the end of the run.
    trace.addCounter(0, "utilization", now, "util", 0.0);
    if (avgPowerW > 0.0)
        trace.addCounter(0, "power_W", now, "power", 0.0);
    if (!intervals.empty()) {
        // Per-interval deltas as Perfetto counter tracks: the CPI
        // stack (where did this window's cycles go), main-memory
        // traffic, and DRAM activity (row outcomes, queue occupancy
        // samples) when the detailed model ran.
        intervals.toCounterTracks(trace, 0, "sim.cpistack", "cpistack");
        intervals.toCounterTracks(trace, 0, "mem", "mem");
        intervals.toCounterTracks(trace, 0, "dram.reads", "dram");
        intervals.toCounterTracks(trace, 0, "dram.rowHits", "dram");
        intervals.toCounterTracks(trace, 0, "dram.rowConflicts",
                                  "dram");
    }
    trace.write(out);
}

} // namespace scalesim::core
