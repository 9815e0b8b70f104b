/**
 * @file
 * Single-channel DRAM controller: per-bank row-buffer state machine,
 * JEDEC timing enforcement (tRCD/tRP/tCL/tRAS/tRC/tRRD/tFAW/tCCD/tWR/
 * tRTP/tWTR), shared data-bus occupancy, and FR-FCFS scheduling with a
 * bounded reorder window and a row-hit streak cap.
 *
 * The controller is event-driven at request granularity: it never ticks
 * idle cycles, so million-request traces simulate in milliseconds while
 * every inter-command constraint is honored exactly. Refresh catch-up
 * after a long gap is one closed-form division, not a loop over every
 * elapsed tREFI window.
 */

#ifndef SCALESIM_DRAM_CONTROLLER_HH
#define SCALESIM_DRAM_CONTROLLER_HH

#include <deque>
#include <string>
#include <unordered_map>
#include <vector>

#include "dram/timing.hpp"
#include "obs/stats.hpp"

namespace scalesim::dram
{

/** Channel-local coordinates of a transaction. */
struct DecodedAddr
{
    std::uint32_t rank = 0;
    std::uint32_t bank = 0;
    std::uint64_t row = 0;
    std::uint64_t col = 0;
};

/** Row-buffer outcome of one serviced transaction. */
enum class RowOutcome
{
    Hit,
    Miss,     ///< bank was closed (empty row buffer)
    Conflict, ///< different row was open
};

/**
 * Row-buffer management policy: open-page keeps rows open for locality
 * (hits cheap, conflicts expensive); closed-page auto-precharges after
 * every access (no hits, but no conflicts either — better for random
 * traffic).
 */
enum class PagePolicy
{
    Open,
    Closed,
};

/** Aggregate statistics of one channel (or summed across channels). */
struct DramStats
{
    Count reads = 0;
    Count writes = 0;
    Count rowHits = 0;
    Count rowMisses = 0;
    Count rowConflicts = 0;
    /** Per-rank all-bank refresh operations performed. */
    Count refreshes = 0;
    std::uint64_t readBytes = 0;
    std::uint64_t writeBytes = 0;
    /** Sum over reads of (data completion - arrival), memory clocks. */
    Cycle totalReadLatency = 0;
    /**
     * Exact component split of totalReadLatency (memory clocks):
     * readQueueWait (arrival until the controller turns to the
     * request) + readRefreshWait (waiting out an in-progress refresh
     * window) + readServiceTime (bank access + bus transfer) sum to
     * totalReadLatency for every read. Catch-up refreshes that closed
     * rows long before the request arrived surface as service time
     * (their cost is the row miss they cause), not refresh wait.
     */
    Cycle readQueueWait = 0;
    Cycle readRefreshWait = 0;
    Cycle readServiceTime = 0;
    Cycle firstArrival = ~static_cast<Cycle>(0);
    Cycle lastCompletion = 0;

    double
    rowHitRate() const
    {
        const Count total = rowHits + rowMisses + rowConflicts;
        return total ? static_cast<double>(rowHits) / total : 0.0;
    }
    double
    avgReadLatency() const
    {
        return reads ? static_cast<double>(totalReadLatency) / reads
                     : 0.0;
    }

    void merge(const DramStats& other);
};

/**
 * Read-latency split of the reads one call serviced (memory clocks):
 * the DramStats readQueueWait / readRefreshWait / readServiceTime
 * those reads added.
 */
struct LatencySplit
{
    Cycle queueWait = 0;
    Cycle refreshWait = 0;
    Cycle service = 0;
};

/** Row-buffer outcome counters of one bank (observability). */
struct BankStats
{
    Count rowHits = 0;
    Count rowMisses = 0;
    Count rowConflicts = 0;
};

/**
 * One DRAM channel. The trace-driven flow enqueues whole traces and
 * serviceUntil() drains the pending queue with FR-FCFS reordering
 * until a given request completes. The coupled flow issues one burst
 * at a time into an empty queue, so serviceArrival() services it on
 * arrival, with the same stats enqueue() + serviceUntil() would record.
 */
class Channel
{
  public:
    Channel(const DramTiming& timing, std::uint32_t ranks,
            std::uint32_t reorder_window = 32,
            std::uint32_t hit_streak_cap = 16,
            PagePolicy policy = PagePolicy::Open);

    /** Enqueue; returns the request's sequence handle. Arrivals may
     *  be out of order — the queue is kept sorted by arrival (ties
     *  keep enqueue order), so "oldest" always means earliest. */
    std::uint64_t enqueue(const DecodedAddr& addr, bool write,
                          Cycle arrival);

    /**
     * Service one request arriving at an empty queue, straight away;
     * returns its completion as serviceUntil() would and adds a read's
     * latency split to `split`. Panics if requests are pending.
     */
    Cycle serviceArrival(const DecodedAddr& addr, bool write,
                         Cycle arrival, LatencySplit& split);

    /** Service pending requests until `seq` completes; returns its
     *  completion time (data arrival for reads, column-command issue
     *  for writes), in memory clocks. */
    Cycle serviceUntil(std::uint64_t seq);

    const DramStats& stats() const { return stats_; }

    /** Per-bank row-buffer outcome counters (rank-major). */
    const std::vector<BankStats>& bankStats() const
    {
        return bankStats_;
    }

    /** Request-queue depth histogram, sampled at each enqueue. */
    const obs::Histogram& queueOccupancy() const
    {
        return queueOccupancy_;
    }

    /** Per-read round-trip latency distribution (memory clocks). */
    const obs::Histogram& readLatency() const { return readLatency_; }

    /** Per-read queue-wait component distribution (memory clocks). */
    const obs::Histogram& readQueueWait() const
    {
        return readQueueWaitHist_;
    }

    /** Per-read service component (refresh wait included) dist. */
    const obs::Histogram& readService() const
    {
        return readServiceHist_;
    }

    /** Memory clocks the shared data bus spent transferring bursts. */
    Cycle busBusyCycles() const { return busBusyCycles_; }

    /**
     * Register this channel's stats under `prefix` (dotted group, e.g.
     * "dram.ch0"): request/outcome scalars, per-bank outcome vectors,
     * the queue-occupancy distribution, and derived formulas
     * (rowHitRate, avgReadLatency, busUtilization).
     */
    void registerStats(obs::StatsRegistry& reg,
                       const std::string& prefix) const;

  private:
    struct Pending
    {
        DecodedAddr addr;
        bool write = false;
        Cycle arrival = 0;
        std::uint64_t seq = 0;
        /** rank-major global bank index, precomputed at enqueue. */
        std::uint32_t gbank = 0;
    };

    struct Bank
    {
        bool open = false;
        std::uint64_t row = 0;
        Cycle rcdDone = 0;   ///< earliest column cmd to the open row
        Cycle preReady = 0;  ///< earliest legal precharge
        Cycle lastAct = 0;
    };

    /** Index into pending_ of the next request to service. */
    std::size_t pickNext(Cycle decision_time);

    /** Check the bank, number the request and note its arrival. */
    Pending admit(const DecodedAddr& addr, bool write, Cycle arrival);

    /** Service one request; returns completion time and adds a
     *  read's latency split to `split`. */
    Cycle serviceOne(const Pending& req, LatencySplit& split);

    DramTiming timing_;
    std::uint32_t reorderWindow_;
    std::uint32_t hitStreakCap_;
    PagePolicy policy_;

    std::deque<Pending> pending_;
    std::vector<Bank> banks_;
    DramStats stats_;
    std::vector<BankStats> bankStats_;
    obs::Histogram queueOccupancy_;
    obs::Histogram readLatency_;
    obs::Histogram readQueueWaitHist_;
    obs::Histogram readServiceHist_;
    Cycle busBusyCycles_ = 0;

    Cycle busFree_ = 0;
    Cycle lastColCmd_ = 0;
    bool lastWasWrite_ = false;
    Cycle lastWriteDataEnd_ = 0;
    Cycle lastActAny_ = 0;
    /**
     * Start of each rank's next due refresh window (tREFI cadence,
     * first due one tREFI after reset). tREFI/tRFC are per-rank: a
     * refresh closes only that rank's row buffers.
     */
    std::vector<Cycle> nextRefresh_;
    std::deque<Cycle> actWindow_;
    std::uint64_t nextSeq_ = 0;
    // Completions of serviced requests awaiting retrieval. Keyed
    // access only (erased by request id): hash order never decides
    // scheduling or stats (scalesim_lint unordered-iteration-to-output
    // would flag any iteration added here).
    std::unordered_map<std::uint64_t, Cycle> completed_;
    std::uint64_t hitStreak_ = 0;
    std::uint32_t streakBank_ = ~0u;
    std::uint64_t streakRow_ = 0;
};

} // namespace scalesim::dram

#endif // SCALESIM_DRAM_CONTROLLER_HH
