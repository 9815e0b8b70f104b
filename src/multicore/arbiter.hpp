/**
 * @file
 * Contention arbitration for the cycle-interleaved multi-core
 * co-simulation: a round-robin grant arbiter that picks which core's
 * pending memory transaction executes next on the shared timeline, and
 * a per-core MemoryPort decorator that attributes shared-resource wait
 * cycles and traffic to the requesting core.
 */

#ifndef SCALESIM_MULTICORE_ARBITER_HH
#define SCALESIM_MULTICORE_ARBITER_HH

#include <cstddef>
#include <vector>

#include "obs/stats.hpp"
#include "systolic/memory.hpp"

namespace scalesim::multicore
{

/** Grant statistics of the shared-memory arbiter. */
struct ArbiterStats
{
    /** Transactions granted. */
    Count grants = 0;
    /**
     * Grants where at least one other core wanted the same cycle:
     * each such grant adds (contenders - 1). Zero means the cores
     * never collided.
     */
    Count arbConflicts = 0;
    /** Contenders left waiting at each grant (occupancy of the
     *  arbitration queue; bucket 0 = uncontended grants). */
    obs::Histogram waiters;
};

/**
 * Round-robin arbiter over N requester ports. Each port advertises the
 * cycle of its next pending transaction (or `none` when idle/done);
 * grant() picks the earliest, breaking same-cycle ties round-robin
 * from the port after the previous grantee.
 *
 * Selection is an argmin over the total-order key (cycle, cyclic
 * distance from the round-robin pointer). grant() finds it in three
 * short passes: a branch-free min over the cycles (idle ports carry
 * the largest Cycle, so they never win it), a count of the ports at
 * that min that also notes the earliest cycle of the others, and a
 * walk from the round-robin pointer to the first port at the min.
 *
 * grantAfterStep() serves the co-simulation loop, where stepping the
 * granted engine moves only that port's cycle. The last scan's tie
 * count at the minimum cycle and the earliest cycle of every other
 * port then decide the next winner without a new scan for as long as
 * the stepped port stays at the minimum, leaves it for a later cycle
 * while others remain tied, or leaves it as the sole earliest port.
 */
class RoundRobinArbiter
{
  public:
    explicit RoundRobinArbiter(std::size_t ports);

    /** Returned by grant() when every port is idle. */
    static constexpr std::size_t kNone = ~static_cast<std::size_t>(0);

    /**
     * Pick the next port to serve. `next[i]` is port i's pending
     * transaction cycle, `none` marking idle ports; `none` must be the
     * largest Cycle (DoubleBufferedScratchpad::kNoEvent). Returns kNone
     * when nothing is pending.
     */
    std::size_t grant(const std::vector<Cycle>& next, Cycle none);

    /**
     * grant() for a caller that changed only the previous grantee's
     * entry of `next` since the previous grant: same port, same
     * statistics, usually without a scan. The previous call must have
     * granted a port.
     */
    std::size_t grantAfterStep(const std::vector<Cycle>& next,
                               Cycle none);

    /** Grant statistics, with the waiter tally folded into `waiters`. */
    ArbiterStats stats() const;

  private:
    /** Grant the first port at earliest_ in round-robin order. */
    std::size_t award(const std::vector<Cycle>& next);

    std::size_t ports_;
    /** Port after the previous grantee gets top tie-break priority. */
    std::size_t nextPriority_ = 0;
    /** The previous grantee. */
    std::size_t last_ = kNone;
    /** Minimum cycle of the last scan, and how many ports are still
     *  at it (the previous grantee counted until it moves). */
    Cycle earliest_ = 0;
    std::size_t tied_ = 0;
    /** Earliest cycle of every port not at earliest_. */
    Cycle later_ = 0;
    ArbiterStats stats_;
    /** waiterTally_[w] = grants that left w ports waiting. Integer
     *  counts per grant, folded into stats_.waiters only by stats(). */
    std::vector<Count> waiterTally_;
};

/**
 * Per-core traffic/wait statistics of one MemoryPort: the port's own
 * MemoryStats plus its queueing delay. The read-latency split obeys
 * (audited under `cpi.conservation`)
 *   readPortWait + readQueueWait + readRefresh + readService
 *     == totalReadLatency.
 */
struct MemoryPortStats : systolic::MemoryStats
{
    /**
     * Aggregate queueing delay at the shared serialization point (the
     * L2 port, or the DRAM bus when no L2 is configured): the sum over
     * this core's transactions of the cycles each spent queued before
     * service. The backlog a transaction queues behind mixes other
     * cores' traffic with this core's own earlier bursts — use the
     * arbiter's arbConflicts/waiters stats for the pure cross-core
     * collision count. `stallOnL2` in the stats output.
     */
    Cycle waitCycles = 0;
};

/**
 * Per-core view of the shared memory: forwards every transaction and
 * charges the shared resource's issue wait to this core. One instance
 * per core sits between its L1 engine and the shared L2/DRAM.
 */
class MemoryPort : public systolic::MainMemory
{
  public:
    explicit MemoryPort(systolic::MainMemory& shared)
        : shared_(shared)
    {
    }

    Cycle issueRead(Addr addr, Count words, Cycle now) override;
    Cycle issueWrite(Addr addr, Count words, Cycle now) override;
    Cycle lastIssueWait() const override
    {
        return shared_.lastIssueWait();
    }

    MemoryPortStats portStats() const { return {stats_, waitCycles_}; }

  private:
    systolic::MainMemory& shared_;
    Cycle waitCycles_ = 0;
};

} // namespace scalesim::multicore

#endif // SCALESIM_MULTICORE_ARBITER_HH
