/**
 * @file
 * Simulator self-profiling: per-phase wall-clock accumulators plus a
 * peak-RSS probe, threaded through core::Simulator::runLayer so the
 * run report can state what the *simulation itself* cost (the paper's
 * Table IV treats simulation overhead as a first-class result). One
 * SimProfiler per Simulator instance — workers in a parallel sweep
 * each profile their own run, so no synchronization is needed. A run's
 * demand workers time each stage into a SimProfiler of its own, which
 * the calling thread merges in layer order.
 */

#ifndef SCALESIM_COMMON_PROFILER_HH
#define SCALESIM_COMMON_PROFILER_HH

#include <array>
#include <chrono>
#include <cstdint>
#include <iosfwd>

namespace scalesim
{

/** Simulation phases instrumented inside Simulator::runLayer. */
enum class SimPhase : unsigned
{
    Sparsity,   ///< N:M pattern resolution + compression (§IV)
    DemandGen,  ///< per-cycle demand streaming (layout/energy taps)
    Scratchpad, ///< fold-level prefetch scheduling, bandwidth memory
    Dram,       ///< detailed DRAM model inside the timing pass (§V)
    Energy,     ///< action counting + energy/power estimation (§VII)
};

constexpr unsigned kNumSimPhases = 5;

const char* toString(SimPhase phase);

/** Wall-clock + memory self-measurement of one simulator run. */
struct SimProfile
{
    /** Accumulated wall-clock seconds per phase. */
    std::array<double, kNumSimPhases> phaseSeconds{};
    /**
     * Wall-clock seconds of the layers on the calling thread: inside
     * runLayer, or in Simulator::run the wait for each layer's demand
     * stage plus its timing stage. Phases of a pipelined run may sum
     * above it.
     */
    double totalSeconds = 0.0;
    /**
     * CPU seconds of the threads that simulated the layers
     * (CLOCK_THREAD_CPUTIME_ID): the calling thread's share of
     * totalSeconds plus the whole of every demand worker of the run
     * (up to two, DESIGN.md "Run pipeline").
     */
    double cpuSeconds = 0.0;
    /** Layers profiled (repetitions are simulated once). */
    std::uint64_t layersProfiled = 0;
    /**
     * Layers whose work a run took from an earlier layer of the same
     * shape: demand stages Simulator::run reused, or multi-core layers
     * runMultiCore reused (DESIGN.md "Run pipeline").
     */
    std::uint64_t layersReused = 0;
    /**
     * Bytes of the capture arena the run's demand passes needed: the
     * largest fold-capture footprint of a layer that ran a pass
     * (DESIGN.md "Run pipeline"). Deterministic for a given config
     * and topology; 0 without a demand pass.
     */
    std::uint64_t captureBytes = 0;
    /** Process peak resident-set size sampled at the end, in KiB. */
    std::uint64_t peakRssKb = 0;

    double
    seconds(SimPhase phase) const
    {
        return phaseSeconds[static_cast<unsigned>(phase)];
    }

    /** totalSeconds not attributed to any instrumented phase. */
    double
    otherSeconds() const
    {
        double attributed = 0.0;
        for (double s : phaseSeconds)
            attributed += s;
        return totalSeconds > attributed ? totalSeconds - attributed
                                         : 0.0;
    }

    void
    merge(const SimProfile& other)
    {
        for (unsigned p = 0; p < kNumSimPhases; ++p)
            phaseSeconds[p] += other.phaseSeconds[p];
        totalSeconds += other.totalSeconds;
        cpuSeconds += other.cpuSeconds;
        layersProfiled += other.layersProfiled;
        layersReused += other.layersReused;
        if (other.captureBytes > captureBytes)
            captureBytes = other.captureBytes;
        if (other.peakRssKb > peakRssKb)
            peakRssKb = other.peakRssKb;
    }

    /** The SIM_OVERHEAD stats block of the run report. */
    void writeReport(std::ostream& out) const;
};

/** Process peak RSS in KiB (getrusage; 0 if unavailable). */
std::uint64_t peakRssKb();

/** CPU seconds of the calling thread so far (0 if unavailable). */
double threadCpuSeconds();

/** Accumulates a SimProfile; cheap enough to leave always-on. */
class SimProfiler
{
  public:
    using clock = std::chrono::steady_clock;

    /** RAII phase timer; charges the elapsed time on destruction. */
    class Scope
    {
      public:
        Scope(SimProfiler& profiler, SimPhase phase)
            : profiler_(profiler), phase_(phase), start_(clock::now())
        {}
        ~Scope()
        {
            profiler_.charge(phase_, std::chrono::duration<double>(
                                         clock::now() - start_)
                                         .count());
        }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

      private:
        SimProfiler& profiler_;
        SimPhase phase_;
        clock::time_point start_;
    };

    Scope scope(SimPhase phase) { return Scope(*this, phase); }

    void
    charge(SimPhase phase, double seconds)
    {
        profile_.phaseSeconds[static_cast<unsigned>(phase)] += seconds;
    }

    /** Start of one layer on the wall clock and the thread's CPU clock. */
    struct LayerStart
    {
        clock::time_point wall = clock::now();
        double cpu = threadCpuSeconds();
    };

    /**
     * Charge the layer begun at `start`: its wall seconds to the total
     * and the calling thread's CPU seconds to cpuSeconds. Returns the
     * wall seconds.
     */
    double
    chargeLayer(const LayerStart& start)
    {
        const double seconds =
            std::chrono::duration<double>(clock::now() - start.wall)
                .count();
        profile_.totalSeconds += seconds;
        profile_.cpuSeconds += threadCpuSeconds() - start.cpu;
        ++profile_.layersProfiled;
        return seconds;
    }

    /** Count one layer whose work came from an earlier layer's. */
    void countReuse() { ++profile_.layersReused; }

    /** Record a run's capture-arena need; the profile keeps the most. */
    void
    noteCaptureBytes(std::uint64_t bytes)
    {
        if (bytes > profile_.captureBytes)
            profile_.captureBytes = bytes;
    }

    /** Charge other threads' CPU seconds (a run's demand workers). */
    void chargeCpu(double seconds) { profile_.cpuSeconds += seconds; }

    /**
     * Charge work performed outside Simulator::runLayer (e.g. a
     * bench's standalone demand-generation pass) to a phase *and* the
     * total, so bench overhead ratios come from one instrument.
     */
    void
    chargeExternal(SimPhase phase, double seconds)
    {
        charge(phase, seconds);
        profile_.totalSeconds += seconds;
    }

    /** Charge unattributed external work to the total only. */
    void chargeOther(double seconds)
    {
        profile_.totalSeconds += seconds;
    }

    /** Fold another profile (e.g. a RunResult's) into this one. */
    void merge(const SimProfile& other) { profile_.merge(other); }
    void
    merge(const SimProfiler& other)
    {
        profile_.merge(other.profile_);
    }

    /** Profile so far, with the peak-RSS probe refreshed. */
    SimProfile
    snapshot() const
    {
        SimProfile copy = profile_;
        copy.peakRssKb = peakRssKb();
        return copy;
    }

    void reset() { profile_ = SimProfile{}; }

  private:
    SimProfile profile_;
};

} // namespace scalesim

#endif // SCALESIM_COMMON_PROFILER_HH
