#include "multicore/arbiter.hpp"

#include "check/contract.hpp"
#include "common/log.hpp"

namespace scalesim::multicore
{

RoundRobinArbiter::RoundRobinArbiter(std::size_t ports)
    : ports_(ports)
{
    if (ports_ == 0)
        fatal("arbiter needs at least one port");
}

std::size_t
RoundRobinArbiter::grant(const std::vector<Cycle>& next, Cycle none)
{
    // One scan in priority order: from the port after the previous
    // grantee, wrapping once. The first port at the minimum cycle
    // wins the tie-break; every later port at that cycle waits.
    std::size_t best = kNone;
    Cycle best_cycle = 0;
    std::uint64_t waiting = 0;
    std::size_t i = nextPriority_;
    for (std::size_t s = 0; s < ports_; ++s) {
        const Cycle cycle = next[i];
        if (cycle != none) {
            if (best == kNone || cycle < best_cycle) {
                best = i;
                best_cycle = cycle;
                waiting = 0;
            } else if (cycle == best_cycle) {
                ++waiting;
            }
        }
        if (++i == ports_)
            i = 0;
    }
    if (best == kNone)
        return kNone;

    ++stats_.grants;
    stats_.arbConflicts += waiting;
    stats_.waiters.sample(static_cast<double>(waiting));
    SIM_CHECK_EQ(stats_.waiters.count, stats_.grants,
                 "exactly one contention sample per grant");

    nextPriority_ = best + 1 == ports_ ? 0 : best + 1;
    return best;
}

Cycle
MemoryPort::issueRead(Addr addr, Count words, Cycle now)
{
    // Delta-capture the shared model's latency components across the
    // call: the co-simulation scheduler runs one transaction at a
    // time, so the delta belongs entirely to this request. The issue
    // wait at the shared serialization point is reclassified from
    // queue wait to port wait — that is the cross-core contention the
    // CPI stack surfaces as l2Wait.
    const systolic::MemoryStats& shared = shared_.stats();
    const Cycle queue_before = shared.readQueueWait;
    const Cycle refresh_before = shared.readRefresh;
    const Cycle service_before = shared.readService;
    const Cycle done = shared_.issueRead(addr, words, now);
    const Cycle wait = shared_.lastIssueWait();
    const Cycle latency = done - now;
    const Cycle queue_delta = shared.readQueueWait - queue_before;
    const Cycle refresh_delta = shared.readRefresh - refresh_before;
    const Cycle service_delta = shared.readService - service_before;
    // The issue wait is reclassified from queue wait to port wait, but
    // only the overlap actually present in the backend's queue
    // accounting: when the backend reports less queue wait than the
    // issue wait (SharedL2 reports none at all), reclassifying the
    // full `wait` would make cycles vanish from the split. Whatever
    // the backend left unattributed (L2 hit/fill/transfer time) lands
    // in readService, so the four components always sum to
    // totalReadLatency — the port-level cpi.conservation law.
    const Cycle reclass = std::min(wait, queue_delta);
    const Cycle queue_kept = queue_delta - reclass;
    const Cycle attributed =
        wait + queue_kept + refresh_delta + service_delta;
    const Cycle residual = latency > attributed ? latency - attributed
                                                : 0;
    ++portStats_.readRequests;
    portStats_.readWords += words;
    portStats_.waitCycles += wait;
    portStats_.totalReadLatency += latency;
    portStats_.readPortWait += wait;
    portStats_.readQueueWait += queue_kept;
    portStats_.readRefresh += refresh_delta;
    portStats_.readService += service_delta + residual;
    ++stats_.readRequests;
    stats_.readWords += words;
    stats_.totalReadLatency += latency;
    stats_.readPortWait += wait;
    stats_.readQueueWait += queue_kept;
    stats_.readRefresh += refresh_delta;
    stats_.readService += service_delta + residual;
    return done;
}

Cycle
MemoryPort::issueWrite(Addr addr, Count words, Cycle now)
{
    const Cycle done = shared_.issueWrite(addr, words, now);
    ++portStats_.writeRequests;
    portStats_.writeWords += words;
    portStats_.waitCycles += shared_.lastIssueWait();
    ++stats_.writeRequests;
    stats_.writeWords += words;
    stats_.totalWriteLatency += done - now;
    return done;
}

} // namespace scalesim::multicore
