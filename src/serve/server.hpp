/**
 * @file
 * Sweep-as-a-service front end (the ROADMAP item 2 "shareable engine"):
 * a long-running server speaking newline-delimited JSON (one request
 * object per line, one response object per line) over stdin/stdout —
 * trivially bridged to a Unix socket with `socat UNIX-LISTEN:... EXEC:`.
 * Requests fan out over parallelFor via the sweep runner and
 * share one content-addressed per-layer result cache, so re-submitted
 * or overlapping sweeps are served from memory.
 *
 * Protocol (all requests may carry an "id" echoed in the response):
 *
 *   {"id":1,"type":"ping"}
 *   {"id":2,"type":"run","workload":"resnet18",
 *    "config":{"architecture":{"ArrayHeight":"16"}}}
 *   {"id":3,"type":"run","topology":{"name":"t","layers":[
 *      {"name":"g0","type":"gemm","m":64,"n":64,"k":64}]}}
 *   {"id":4,"type":"sweep","workload":"alexnet","arrays":[8,16],
 *    "dataflows":["os","ws"],"sramKb":[256],"jobs":4}
 *   {"id":5,"type":"stats"}
 *   {"id":6,"type":"shutdown"}
 *
 * Responses: {"id":...,"ok":true,"result":{...}} or
 * {"id":...,"ok":false,"error":"..."}. Run and sweep results carry no
 * cache counters and no wall-clock, so identical requests produce
 * byte-identical response lines whether served cold or warm; cache
 * behavior and request latency are observable through the separate
 * "stats" request. A sweep's "jobs" may not exceed kMaxSweepJobs.
 *
 * "config" is a {section: {key: value}} overlay applied on top of the
 * server's base INI config; values may be JSON strings, numbers, or
 * booleans. "cache":false on a run/sweep bypasses the result cache.
 */

#ifndef SCALESIM_SERVE_SERVER_HH
#define SCALESIM_SERVE_SERVER_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>

#include "check/thread_safety.hpp"
#include "common/config.hpp"
#include "serve/cache.hpp"

namespace scalesim::serve
{

/** ndjson request server; see file comment. */
class Server
{
  public:
    /**
     * Largest "jobs" a sweep request may ask for: each job is a thread,
     * so this bounds the threads one request can start.
     */
    static constexpr unsigned kMaxSweepJobs = 256;

    struct Options
    {
        /** Base INI config; request overlays apply on top. */
        IniFile baseConfig;
        /** Cache persistence path; empty disables persistence. */
        std::string cacheFile;
        /** LRU byte budget for the cache (0 = unlimited). */
        std::uint64_t cacheBudgetBytes = 0;
        /** Worker threads for sweeps not specifying "jobs". */
        unsigned defaultJobs = 1;
        /**
         * Parse and validate run/sweep requests fully (config
         * overlay, topology, axes) but skip the simulation itself,
         * answering with a summary of what would run. The fuzz
         * harness drives the whole request parser through this.
         */
        bool dryRun = false;
    };

    explicit Server(Options options);

    /**
     * Handle one request line, returning one response line (no
     * trailing newline). Never throws; malformed input yields an
     * ok:false response. Thread-safe: concurrent callers share the
     * cache and counters. Its wall seconds join the "latency" figures
     * of later stats responses.
     */
    std::string handleRequest(const std::string& line);

    /**
     * Serve requests from `in` until EOF or a shutdown request, then
     * persist the cache (when configured). Returns a process exit
     * code (0 on clean shutdown or EOF).
     */
    int serve(std::istream& in, std::ostream& out);

    LayerResultCache& cache() { return cache_; }

    /** Persist the cache now (no-op without a cache file). */
    bool saveCache() const;

  private:
    /** Wall seconds of the requests handled so far. */
    struct Latency
    {
        std::uint64_t count = 0;
        double totalS = 0.0;
        double maxS = 0.0;
    };

    /** handleRequest's body; handleRequest times it. */
    std::string respond(const std::string& line);

    // Thread-safety story (checked under clang's thread-safety
    // analysis): options_ is immutable after construction, cache_
    // serializes internally on its SIM_GUARDED_BY-annotated mutex
    // (see cache.hpp), the three counters are atomics, and the
    // latency figures, which must be read together, sit behind their
    // own mutex.
    Options options_;
    LayerResultCache cache_;
    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> errors_{0};
    std::atomic<bool> shutdown_{false};
    CheckedMutex latencyMutex_;
    Latency latency_ SIM_GUARDED_BY(latencyMutex_);
};

} // namespace scalesim::serve

#endif // SCALESIM_SERVE_SERVER_HH
