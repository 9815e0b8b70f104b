#include "multicore/arbiter.hpp"

#include <algorithm>

#include "check/contract.hpp"
#include "common/log.hpp"

namespace scalesim::multicore
{

RoundRobinArbiter::RoundRobinArbiter(std::size_t ports)
    : ports_(ports), waiterTally_(ports, 0)
{
    if (ports_ == 0)
        fatal("arbiter needs at least one port");
}

std::size_t
RoundRobinArbiter::grant(const std::vector<Cycle>& next, Cycle none)
{
    SIM_CHECK_EQ(none, ~Cycle{0}, "idle ports must carry the largest "
                                  "cycle");
    const Cycle* cycle = next.data();
    Cycle earliest = cycle[0];
    for (std::size_t i = 1; i < ports_; ++i)
        earliest = std::min(earliest, cycle[i]);
    if (earliest == none)
        return kNone;
    std::size_t tied = 0;
    Cycle later = none;
    for (std::size_t i = 0; i < ports_; ++i) {
        const bool at = cycle[i] == earliest;
        tied += at;
        later = std::min(later, at ? none : cycle[i]);
    }
    earliest_ = earliest;
    tied_ = tied;
    later_ = later;
    return award(next);
}

std::size_t
RoundRobinArbiter::grantAfterStep(const std::vector<Cycle>& next,
                                  Cycle none)
{
    SIM_CHECK_NE(last_, kNone, "grantAfterStep() without a grant");
    const Cycle moved = next[last_];
    if (moved != earliest_) {
        // Time only moves forward in the co-simulation, but a port
        // stepping back before the minimum needs a fresh scan.
        if (moved < earliest_)
            return grant(next, none);
        if (--tied_ == 0) {
            if (moved >= later_)
                return grant(next, none);
            // Strictly before every other port: the grantee wins
            // again, uncontended.
            earliest_ = moved;
            tied_ = 1;
        } else {
            later_ = std::min(later_, moved);
        }
    }
    return award(next);
}

std::size_t
RoundRobinArbiter::award(const std::vector<Cycle>& next)
{
    // The first port at the earliest cycle in round-robin order from
    // the port after the previous grantee wins; the others wait.
    const Cycle* cycle = next.data();
    const Cycle* from = cycle + nextPriority_;
    const Cycle* end = cycle + ports_;
    const Cycle* best = std::find(from, end, earliest_);
    if (best == end)
        best = std::find(cycle, from, earliest_);
    const std::size_t granted = static_cast<std::size_t>(best - cycle);

    const std::size_t waiting = tied_ - 1;
    ++stats_.grants;
    stats_.arbConflicts += waiting;
    ++waiterTally_[waiting];
    last_ = granted;
    nextPriority_ = granted + 1 == ports_ ? 0 : granted + 1;
    return granted;
}

ArbiterStats
RoundRobinArbiter::stats() const
{
    // The tallied waiter counts are small whole numbers, so folding
    // them in gives the sum and sum of squares one sample per grant
    // would have, exactly.
    ArbiterStats folded = stats_;
    for (std::size_t w = 0; w < ports_; ++w)
        folded.waiters.sample(static_cast<double>(w), waiterTally_[w]);
    SIM_CHECK_EQ(folded.waiters.count, folded.grants,
                 "exactly one contention sample per grant");
    return folded;
}

Cycle
MemoryPort::issueRead(Addr addr, Count words, Cycle now)
{
    // Only fixed-bandwidth models sit behind a port (BandwidthMemory,
    // or a SharedL2 in front of one), and neither has a refresh or a
    // controller queue of its own: the issue wait at the shared
    // serialization point is the cross-core contention the CPI stack
    // surfaces as l2Wait, and the rest of the round trip is service.
    const Cycle done = shared_.issueRead(addr, words, now);
    const Cycle wait = shared_.lastIssueWait();
    const Cycle latency = done - now;
    ++stats_.readRequests;
    stats_.readWords += words;
    stats_.totalReadLatency += latency;
    stats_.readPortWait += wait;
    stats_.readService += latency > wait ? latency - wait : 0;
    waitCycles_ += wait;
    return done;
}

Cycle
MemoryPort::issueWrite(Addr addr, Count words, Cycle now)
{
    const Cycle done = shared_.issueWrite(addr, words, now);
    ++stats_.writeRequests;
    stats_.writeWords += words;
    stats_.totalWriteLatency += done - now;
    waitCycles_ += shared_.lastIssueWait();
    return done;
}

} // namespace scalesim::multicore
