/**
 * @file
 * scalesim_serve: the sweep-as-a-service front end. Speaks
 * newline-delimited JSON over stdin/stdout (see serve/server.hpp for
 * the protocol) and keeps a content-addressed per-layer result cache
 * across requests, optionally persisted to disk. Bridge to a Unix
 * socket with e.g.
 *
 *   socat UNIX-LISTEN:/tmp/scalesim.sock,fork EXEC:"scalesim_serve"
 */

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>

#include "common/config.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"
#include "serve/server.hpp"

using namespace scalesim;

namespace
{

void
usage()
{
    std::cerr <<
        "usage: scalesim_serve [-c config.cfg] [--cache-file PATH]\n"
        "                      [--cache-budget-mb N] [--jobs N]\n"
        "  -c                base INI config; per-request \"config\"\n"
        "                    overlays apply on top\n"
        "  --cache-file      persist the layer-result cache to PATH\n"
        "                    (loaded at startup, saved at shutdown)\n"
        "  --cache-budget-mb LRU byte budget for the cache in MiB\n"
        "                    (0 = unlimited, the default)\n"
        "  --jobs            default worker threads for sweep\n"
        "                    requests that do not specify \"jobs\"\n"
        "                    (0 = auto, at most 256)\n"
        "Reads one JSON request per line from stdin, writes one JSON\n"
        "response per line to stdout; exits on EOF or a shutdown\n"
        "request.\n";
}

/** Largest --cache-budget-mb whose byte count fits in 64 bits. */
constexpr std::uint64_t kMaxBudgetMb =
    std::numeric_limits<std::uint64_t>::max() >> 20;

/** `text` as a count in [0, max]; exits 2 naming `option` otherwise. */
std::uint64_t
count(const std::string& option, const std::string& text,
      std::uint64_t max)
{
    std::uint64_t value = 0;
    if (parseUint64(text, value) != NumberParse::Ok || value > max) {
        std::cerr << "scalesim_serve: " << option
                  << " expects an integer in [0, " << max << "], got '"
                  << text << "'\n";
        std::exit(2);
    }
    return value;
}

} // namespace

int
main(int argc, char** argv)
{
    serve::Server::Options options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                usage();
                std::exit(1);
            }
            return argv[++i];
        };
        if (arg == "-c") {
            options.baseConfig = IniFile::load(next());
        } else if (arg == "--cache-file") {
            options.cacheFile = next();
        } else if (arg == "--cache-budget-mb") {
            options.cacheBudgetBytes =
                count(arg, next(), kMaxBudgetMb) * 1024 * 1024;
        } else if (arg == "--jobs") {
            options.defaultJobs = static_cast<unsigned>(count(
                arg, next(), serve::Server::kMaxSweepJobs));
        } else {
            usage();
            return arg == "-h" || arg == "--help" ? 0 : 1;
        }
    }
    try {
        serve::Server server(std::move(options));
        return server.serve(std::cin, std::cout);
    } catch (const FatalError& e) {
        std::cerr << "scalesim_serve: " << e.what() << "\n";
        return 1;
    }
}
