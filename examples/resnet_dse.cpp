/**
 * @file
 * Design-space exploration: sweep array size, dataflow and on-chip
 * SRAM for ResNet-18 and rank the designs by latency, energy and EdP —
 * the workflow the paper's §IX-B motivates (a latency-optimal design
 * is rarely the energy- or EdP-optimal one).
 *
 * Usage: resnet_dse [--jobs N | -j N]
 * --jobs spreads the design points over N threads (0 = auto); the
 * output is identical for every N.
 */

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string_view>

#include "common/log.hpp"
#include "common/parse.hpp"
#include "common/workloads.hpp"
#include "core/dse.hpp"

using namespace scalesim;

namespace
{

[[noreturn]] void
usage(const char* argv0, int status)
{
    std::fprintf(status == 0 ? stdout : stderr,
                 "usage: %s [--jobs N | -j N]\n", argv0);
    std::exit(status);
}

} // namespace

int
main(int argc, char** argv)
{
    setQuiet(true);
    core::DseSweep sweep;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (arg == "-h" || arg == "--help")
            usage(argv[0], 0);
        std::uint64_t jobs = 0;
        if ((arg != "--jobs" && arg != "-j") || i + 1 == argc
            || parseUint64(argv[++i], jobs) != NumberParse::Ok
            || jobs > std::numeric_limits<unsigned>::max())
            usage(argv[0], 2);
        sweep.jobs = static_cast<unsigned>(jobs);
    }
    sweep.sramKbTotals = {1024, 4096};
    sweep.base.mode = SimMode::Analytical;
    sweep.base.memory.bandwidthWordsPerCycle = 64.0;
    const auto points = core::runSweep(sweep, workloads::resnet18());
    core::writeDseReport(std::cout, points);

    auto best = [&](auto key, const char* what) {
        const auto it = std::min_element(
            points.begin(), points.end(),
            [&](const core::DsePoint& a, const core::DsePoint& b) {
                return key(a) < key(b);
            });
        std::cout << format("best by %-7s: %ux%u %s %llu kB\n", what,
                            it->array, it->array,
                            toString(it->dataflow).c_str(),
                            static_cast<unsigned long long>(it->sramKb));
    };
    std::cout << "\n";
    best([](const core::DsePoint& p) { return p.cycles; }, "latency");
    best([](const core::DsePoint& p) { return p.energyMj; }, "energy");
    best([](const core::DsePoint& p) { return p.edp; }, "EdP");
    return 0;
}
