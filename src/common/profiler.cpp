#include "common/profiler.hpp"

#include <ostream>

#include "common/log.hpp"

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#include <time.h>
#endif

namespace scalesim
{

const char*
toString(SimPhase phase)
{
    switch (phase) {
      case SimPhase::Sparsity: return "sparsity";
      case SimPhase::DemandGen: return "demandGen";
      case SimPhase::Scratchpad: return "scratchpad";
      case SimPhase::Dram: return "dram";
      case SimPhase::Energy: return "energy";
    }
    return "unknown";
}

std::uint64_t
peakRssKb()
{
#if defined(__unix__) || defined(__APPLE__)
    struct rusage usage{};
    if (getrusage(RUSAGE_SELF, &usage) == 0) {
        // ru_maxrss is KiB on Linux, bytes on macOS.
#if defined(__APPLE__)
        return static_cast<std::uint64_t>(usage.ru_maxrss) / 1024;
#else
        return static_cast<std::uint64_t>(usage.ru_maxrss);
#endif
    }
#endif
    return 0;
}

double
threadCpuSeconds()
{
#if defined(__unix__) || defined(__APPLE__)
    timespec ts{};
    if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
        return static_cast<double>(ts.tv_sec)
            + static_cast<double>(ts.tv_nsec) * 1e-9;
    }
#endif
    return 0.0;
}

void
SimProfile::writeReport(std::ostream& out) const
{
    auto stat = [&](const char* name, const std::string& value,
                    const char* desc) {
        out << format("%-32s %20s  # %s\n", name, value.c_str(), desc);
    };
    out << "---------- SIM_OVERHEAD ----------\n";
    stat("sim.overhead.totalSeconds", format("%.6f", totalSeconds),
         "wall-clock spent simulating");
    stat("sim.overhead.cpuSeconds", format("%.6f", cpuSeconds),
         "CPU time of the simulating threads");
    for (unsigned p = 0; p < kNumSimPhases; ++p) {
        const auto phase = static_cast<SimPhase>(p);
        stat(format("sim.overhead.%s", toString(phase)).c_str(),
             format("%.6f", phaseSeconds[p]), "phase seconds");
    }
    stat("sim.overhead.other", format("%.6f", otherSeconds()),
         "unattributed seconds");
    stat("sim.overhead.layers", std::to_string(layersProfiled),
         "layers profiled");
    stat("sim.overhead.layersReused", std::to_string(layersReused),
         "layers reusing an earlier layer's work");
    stat("sim.overhead.captureBytes", std::to_string(captureBytes),
         "fold-capture arena the demand passes needed");
    stat("sim.overhead.peakRssKb", std::to_string(peakRssKb),
         "process peak resident set");
}

} // namespace scalesim
