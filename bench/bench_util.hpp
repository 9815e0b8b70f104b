/**
 * @file
 * Shared helpers for the paper-reproduction bench binaries: aligned
 * table printing, timers and a host-speed calibration loop. Each bench
 * regenerates one table or figure of the SCALE-Sim v3 paper and prints
 * the rows/series the paper reports; EXPERIMENTS.md records
 * paper-vs-measured shape.
 */

#ifndef SCALESIM_BENCH_UTIL_HH
#define SCALESIM_BENCH_UTIL_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "common/parse.hpp"

namespace benchutil
{

/** Fixed-width row printer: pass pre-formatted cells. */
class Table
{
  public:
    explicit Table(std::vector<int> widths) : widths_(std::move(widths))
    {}

    void
    row(const std::vector<std::string>& cells) const
    {
        std::string line;
        for (std::size_t i = 0; i < cells.size(); ++i) {
            std::string cell = cells[i];
            const int width = i < widths_.size()
                ? widths_[i] : 12;
            if (static_cast<int>(cell.size()) < width)
                cell.resize(static_cast<std::size_t>(width), ' ');
            line += cell;
            line += "  ";
        }
        std::printf("%s\n", line.c_str());
    }

    void
    rule() const
    {
        int total = 0;
        for (int w : widths_)
            total += w + 2;
        std::printf("%s\n", std::string(
            static_cast<std::size_t>(total), '-').c_str());
    }

  private:
    std::vector<int> widths_;
};

inline std::string
fmt(const char* pattern, double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), pattern, value);
    return buf;
}

inline std::string
num(std::uint64_t value)
{
    return std::to_string(value);
}

/** Wall-clock timer in seconds. */
class Timer
{
  public:
    Timer() : start_(clock::now()) {}
    double
    seconds() const
    {
        return std::chrono::duration<double>(clock::now() - start_)
            .count();
    }
    void reset() { start_ = clock::now(); }

  private:
    using clock = std::chrono::steady_clock;
    clock::time_point start_;
};

/**
 * Seconds of a fixed loop owned by the bench, not by the simulator:
 * dependent loads from a 32 KiB table chained through integer hashing.
 * Its time tracks how fast the shared host runs at the moment, so a
 * pass's wall time over the loop's time around it is a host-speed-free
 * cost that code under test cannot change.
 */
inline double
calibrationSeconds()
{
    constexpr std::size_t kWords = std::size_t{1} << 12;
    constexpr int kSteps = 1 << 22;
    static const std::vector<std::uint64_t> table = [] {
        std::vector<std::uint64_t> t(kWords);
        std::uint64_t x = 0x9e3779b97f4a7c15ull;
        for (std::uint64_t& v : t)
            v = x = x * 6364136223846793005ull + 1442695040888963407ull;
        return t;
    }();
    static volatile std::uint64_t sink = 0;
    const Timer timer;
    std::uint64_t h = 0xcbf29ce484222325ull;
    std::uint64_t i = 0;
    for (int n = 0; n < kSteps; ++n) {
        i = table[i & (kWords - 1)] ^ h;
        h = (h ^ (i >> 7)) * 0x100000001b3ull;
    }
    sink = sink + h;
    return timer.seconds();
}

/**
 * Best of several passes, each timed between two calibration loops:
 * `seconds` is the fastest wall time, `calibrated` the smallest wall
 * time over the mean of the two loops around it.
 */
struct CalibratedBest
{
    double seconds = 1e30;
    double calibrated = 1e30;

    template <class Pass>
    void
    time(Pass&& pass)
    {
        const double before = calibrationSeconds();
        const Timer timer;
        pass();
        const double wall = timer.seconds();
        seconds = std::min(seconds, wall);
        calibrated = std::min(
            calibrated, wall / (0.5 * (before + calibrationSeconds())));
    }
};

/**
 * Print `usage: <argv0> <synopsis>` (stdout for code 0, else stderr)
 * and exit with `code`.
 */
[[noreturn]] inline void
usage(const char* argv0, const std::string& synopsis, int code)
{
    std::fprintf(code == 0 ? stdout : stderr, "usage: %s%s%s\n", argv0,
                 synopsis.empty() ? "" : " ", synopsis.c_str());
    std::exit(code);
}

/**
 * For a bench that takes no arguments: `-h`/`--help` prints the usage
 * line and exits 0; any other argument exits 2.
 */
inline void
noArgs(int argc, char** argv)
{
    if (argc < 2)
        return;
    const std::string_view arg = argv[1];
    usage(argv[0], "", arg == "-h" || arg == "--help" ? 0 : 2);
}

/**
 * Worker threads for the bench's config points, from `--jobs N` (or
 * `-j N`) on the command line; `fallback` when absent. N = 0 means
 * auto (SCALESIM_JOBS env var, then hardware concurrency). Arguments
 * without a leading '-' are left to the bench, which names them in
 * `positional` for the usage line. `-h`/`--help` prints that line and
 * exits 0; any other option, or a missing or bad N, exits 2.
 */
inline unsigned
jobsFromArgs(int argc, char** argv, unsigned fallback = 1,
             const char* positional = "")
{
    const std::string synopsis =
        std::string(positional) + "[--jobs N | -j N]";
    unsigned jobs = fallback;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "-h" || arg == "--help")
            usage(argv[0], synopsis, 0);
        if (arg == "--jobs" || arg == "-j") {
            std::uint64_t n = 0;
            if (i + 1 == argc
                || scalesim::parseUint64(argv[++i], n)
                       != scalesim::NumberParse::Ok
                || n > std::numeric_limits<unsigned>::max())
                usage(argv[0], synopsis, 2);
            jobs = static_cast<unsigned>(n);
        } else if (arg.starts_with('-')) {
            usage(argv[0], synopsis, 2);
        }
    }
    return jobs;
}

} // namespace benchutil

#endif // SCALESIM_BENCH_UTIL_HH
