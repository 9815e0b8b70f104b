#include "dram/controller.hpp"

#include <algorithm>

#include "check/contract.hpp"
#include "common/log.hpp"

namespace scalesim::dram
{

void
DramStats::merge(const DramStats& other)
{
    reads += other.reads;
    writes += other.writes;
    rowHits += other.rowHits;
    refreshes += other.refreshes;
    rowMisses += other.rowMisses;
    rowConflicts += other.rowConflicts;
    readBytes += other.readBytes;
    writeBytes += other.writeBytes;
    totalReadLatency += other.totalReadLatency;
    readQueueWait += other.readQueueWait;
    readRefreshWait += other.readRefreshWait;
    readServiceTime += other.readServiceTime;
    firstArrival = std::min(firstArrival, other.firstArrival);
    lastCompletion = std::max(lastCompletion, other.lastCompletion);
}

Channel::Channel(const DramTiming& timing, std::uint32_t ranks,
                 std::uint32_t reorder_window,
                 std::uint32_t hit_streak_cap, PagePolicy policy)
    : timing_(timing), reorderWindow_(reorder_window),
      hitStreakCap_(hit_streak_cap), policy_(policy),
      banks_(static_cast<std::size_t>(ranks) * timing.banksPerRank),
      bankStats_(banks_.size()), nextRefresh_(ranks, timing.tREFI)
{
    if (ranks == 0)
        fatal("channel must have at least one rank");
    if (reorderWindow_ == 0)
        reorderWindow_ = 1;
}

Channel::Pending
Channel::admit(const DecodedAddr& addr, bool write, Cycle arrival)
{
    const std::size_t gbank = static_cast<std::size_t>(addr.rank)
        * timing_.banksPerRank + addr.bank;
    if (gbank >= banks_.size())
        fatal("decoded bank %zu out of range (%zu banks)", gbank,
              banks_.size());
    Pending req;
    req.addr = addr;
    req.write = write;
    req.arrival = arrival;
    req.seq = nextSeq_++;
    req.gbank = static_cast<std::uint32_t>(gbank);
    stats_.firstArrival = std::min(stats_.firstArrival, arrival);
    return req;
}

std::uint64_t
Channel::enqueue(const DecodedAddr& addr, bool write, Cycle arrival)
{
    const Pending req = admit(addr, write, arrival);
    // Ordered insert. Arrivals are usually nondecreasing (push_back),
    // but interleaved producers and merged trace files can run late:
    // an out-of-order arrival used to be silently clamped up to the
    // queue tail, distorting its latency and its FR-FCFS age. Instead
    // place it where its arrival belongs, behind every request that
    // arrived no later (FCFS ties keep enqueue order).
    auto pos = pending_.end();
    while (pos != pending_.begin() && (pos - 1)->arrival > arrival)
        --pos;
    [[maybe_unused]] const auto it = pending_.insert(pos, req);
    SIM_CHECK((it == pending_.begin()
               || (it - 1)->arrival <= it->arrival)
                  && (it + 1 == pending_.end()
                      || it->arrival <= (it + 1)->arrival),
              "pending queue stays sorted by arrival");
    queueOccupancy_.sample(static_cast<double>(pending_.size()));
    return req.seq;
}

Cycle
Channel::serviceArrival(const DecodedAddr& addr, bool write,
                        Cycle arrival, LatencySplit& split)
{
    if (!pending_.empty())
        panic("serviceArrival(): %zu requests already pending",
              pending_.size());
    const Pending req = admit(addr, write, arrival);
    // The depth enqueue() would have sampled: this request alone.
    queueOccupancy_.sample(1.0);
    return serviceOne(req, split);
}

std::size_t
Channel::pickNext(Cycle decision_time)
{
    // FR-FCFS over the reorder window: oldest row-hit first, bounded by
    // the hit-streak cap to prevent starvation; otherwise the oldest.
    const std::size_t window = std::min<std::size_t>(pending_.size(),
                                                     reorderWindow_);
    for (std::size_t i = 0; i < window; ++i) {
        const Pending& req = pending_[i];
        // The queue is sorted by arrival, so everything past the first
        // future request is also in the future.
        if (req.arrival > decision_time)
            break;
        const Bank& bank = banks_[req.gbank];
        const bool hit = bank.open && bank.row == req.addr.row;
        if (hit) {
            const bool capped = hitStreak_ >= hitStreakCap_
                && streakBank_ == req.gbank
                && streakRow_ == req.addr.row;
            if (!capped)
                return i;
        }
    }
    // No row hit available (or streak capped): fall back to the oldest
    // request. Sorted arrivals make that index 0 in both cases — when
    // nothing has arrived by decision_time, the front is the earliest
    // future arrival, not an arbitrary queue-order artifact.
    return 0;
}

Cycle
Channel::serviceOne(const Pending& req, LatencySplit& split)
{
    const std::size_t gbank = req.gbank;
    Bank& bank = banks_[gbank];
    Cycle dt = std::max(req.arrival, lastColCmd_);
    // Queue wait ends when the controller turns to this request; the
    // refresh block below may push `dt` further (refresh wait), and
    // whatever remains until data_end is service. The three components
    // sum to (data_end - arrival) exactly — the CPI-stack contract.
    const Cycle queue_done = dt;

    // All-bank refresh, per rank: every tREFI the rank precharges and
    // refreshes for tRFC; requests to it during the window wait, and
    // its row buffers come back closed. Other ranks keep their open
    // rows — tREFI/tRFC are rank-local timings.
    if (timing_.tREFI > 0) {
        Cycle& next = nextRefresh_[req.addr.rank];
        const std::size_t first =
            static_cast<std::size_t>(req.addr.rank)
            * timing_.banksPerRank;
        // `count` consecutive refreshes, the last ending at `end`: each
        // counts once and leaves the rank's rows closed; their ends
        // increase, so only the last one matters for preReady.
        auto refreshRank = [&](std::uint64_t count, Cycle end) {
            for (std::size_t b = first;
                 b < first + timing_.banksPerRank; ++b) {
                banks_[b].open = false;
                banks_[b].preReady = std::max(banks_[b].preReady, end);
            }
            stats_.refreshes += count;
            next += count * timing_.tREFI;
        };
        // Refreshes whose window already closed before this request:
        // the i-th ends at next + i*tREFI + tRFC, so k = floor((dt -
        // tRFC - next) / tREFI) + 1 of them fit before dt.
        if (next + timing_.tRFC <= dt) {
            const std::uint64_t k =
                (dt - timing_.tRFC - next) / timing_.tREFI + 1;
            refreshRank(k, next + (k - 1) * timing_.tREFI + timing_.tRFC);
        }
        // Refresh in progress (or due) at dt: the request waits it out.
        if (dt >= next) {
            const Cycle end = next + timing_.tRFC;
            refreshRank(1, end);
            dt = end;
        }
    }
    const Cycle refresh_done = dt;

    Cycle col_ready;
    RowOutcome outcome;
    if (bank.open && bank.row == req.addr.row) {
        outcome = RowOutcome::Hit;
        col_ready = std::max(dt, bank.rcdDone);
    } else {
        Cycle act_start;
        if (bank.open) {
            outcome = RowOutcome::Conflict;
            const Cycle pre = std::max(dt, bank.preReady);
            act_start = pre + timing_.tRP;
        } else {
            outcome = RowOutcome::Miss;
            act_start = std::max(dt, bank.preReady);
        }
        act_start = std::max(act_start, lastActAny_ + timing_.tRRD);
        act_start = std::max(act_start, bank.lastAct + timing_.tRC);
        if (actWindow_.size() >= 4) {
            act_start = std::max(act_start,
                                 actWindow_.front() + timing_.tFAW);
        }
        bank.lastAct = act_start;
        lastActAny_ = act_start;
        actWindow_.push_back(act_start);
        if (actWindow_.size() > 4)
            actWindow_.pop_front();
        bank.rcdDone = act_start + timing_.tRCD;
        bank.open = true;
        bank.row = req.addr.row;
        col_ready = bank.rcdDone;
    }

    Cycle col_cmd = std::max(col_ready, lastColCmd_ + timing_.tCCD);
    if (!req.write && lastWasWrite_) {
        // Write-to-read turnaround on the shared bus.
        col_cmd = std::max(col_cmd, lastWriteDataEnd_ + timing_.tWTR);
    }
    const Cycle access_lat = req.write ? timing_.tCWL : timing_.tCL;
    Cycle data_start = col_cmd + access_lat;
    if (data_start < busFree_) {
        col_cmd += busFree_ - data_start;
        data_start = busFree_;
    }
    const Cycle data_end = data_start + timing_.tBurst;
    busFree_ = data_end;
    lastColCmd_ = col_cmd;
    lastWasWrite_ = req.write;
    if (req.write)
        lastWriteDataEnd_ = data_end;

    bank.preReady = std::max(bank.lastAct + timing_.tRAS,
                             req.write ? data_end + timing_.tWR
                                       : col_cmd + timing_.tRTP);
    if (policy_ == PagePolicy::Closed) {
        // Auto-precharge: the row closes as soon as it legally can;
        // the next access to this bank is a plain miss.
        bank.open = false;
        bank.preReady += timing_.tRP;
    }

    // Row-hit streak bookkeeping.
    if (outcome == RowOutcome::Hit && streakBank_ == gbank
        && streakRow_ == req.addr.row) {
        ++hitStreak_;
    } else {
        hitStreak_ = outcome == RowOutcome::Hit ? 1 : 0;
        streakBank_ = static_cast<std::uint32_t>(gbank);
        streakRow_ = req.addr.row;
    }

    switch (outcome) {
      case RowOutcome::Hit:
        ++stats_.rowHits;
        ++bankStats_[gbank].rowHits;
        break;
      case RowOutcome::Miss:
        ++stats_.rowMisses;
        ++bankStats_[gbank].rowMisses;
        break;
      case RowOutcome::Conflict:
        ++stats_.rowConflicts;
        ++bankStats_[gbank].rowConflicts;
        break;
    }
    busBusyCycles_ += timing_.tBurst;
    Cycle completion;
    if (req.write) {
        ++stats_.writes;
        stats_.writeBytes += timing_.burstBytes;
        completion = col_cmd; // posted: accepted at column command
    } else {
        ++stats_.reads;
        stats_.readBytes += timing_.burstBytes;
        completion = data_end;
        stats_.totalReadLatency += data_end - req.arrival;
        const Cycle queue_wait = queue_done - req.arrival;
        const Cycle refresh_wait = refresh_done - queue_done;
        const Cycle service = data_end - refresh_done;
        stats_.readQueueWait += queue_wait;
        stats_.readRefreshWait += refresh_wait;
        stats_.readServiceTime += service;
        split.queueWait += queue_wait;
        split.refreshWait += refresh_wait;
        split.service += service;
        readLatency_.sample(static_cast<double>(data_end
                                                - req.arrival));
        readQueueWaitHist_.sample(static_cast<double>(queue_wait));
        readServiceHist_.sample(
            static_cast<double>(refresh_wait + service));
        SIM_CHECK_EQ(queue_wait + refresh_wait + service,
                     data_end - req.arrival,
                     "read latency components are conserved");
    }
    stats_.lastCompletion = std::max(stats_.lastCompletion, data_end);
    SIM_CHECK_EQ(stats_.rowHits + stats_.rowMisses
                     + stats_.rowConflicts,
                 stats_.reads + stats_.writes,
                 "every access resolves to exactly one row outcome");
    return completion;
}

Cycle
Channel::serviceUntil(std::uint64_t seq)
{
    // One completion-map probe up front (the target may have been
    // serviced out of order by an earlier drain), then service straight
    // through to the target and hand its completion back directly —
    // requests serviced on the way park in completed_ without being
    // re-probed every iteration.
    const auto done = completed_.find(seq);
    if (done != completed_.end()) {
        const Cycle completion = done->second;
        completed_.erase(done);
        return completion;
    }
    for (;;) {
        if (pending_.empty())
            panic("serviceUntil(%llu): request not pending",
                  static_cast<unsigned long long>(seq));
        const Cycle decision_time = std::max(pending_.front().arrival,
                                             lastColCmd_);
        const std::size_t idx = pickNext(decision_time);
        const Pending req = pending_[idx];
        pending_.erase(pending_.begin()
                       + static_cast<std::ptrdiff_t>(idx));
        LatencySplit unused;
        const Cycle completion = serviceOne(req, unused);
        if (req.seq == seq)
            return completion;
        completed_[req.seq] = completion;
    }
}

void
Channel::registerStats(obs::StatsRegistry& reg,
                       const std::string& prefix) const
{
    auto name = [&](const char* leaf) { return prefix + "." + leaf; };
    reg.addScalar(name("reads"), "read bursts serviced",
                  static_cast<double>(stats_.reads));
    reg.addScalar(name("writes"), "write bursts serviced",
                  static_cast<double>(stats_.writes));
    reg.addScalar(name("rowHits"), "row-buffer hits",
                  static_cast<double>(stats_.rowHits));
    reg.addScalar(name("rowMisses"), "row-buffer misses (bank closed)",
                  static_cast<double>(stats_.rowMisses));
    reg.addScalar(name("rowConflicts"),
                  "row-buffer conflicts (wrong row open)",
                  static_cast<double>(stats_.rowConflicts));
    reg.addScalar(name("refreshes"), "per-rank all-bank refreshes",
                  static_cast<double>(stats_.refreshes));
    reg.addScalar(name("readBytes"), "bytes read from DRAM",
                  static_cast<double>(stats_.readBytes));
    reg.addScalar(name("writeBytes"), "bytes written to DRAM",
                  static_cast<double>(stats_.writeBytes));
    reg.addScalar(name("totalReadLatency"),
                  "sum of read round-trip latencies (memory clocks)",
                  static_cast<double>(stats_.totalReadLatency));
    reg.addScalar(name("readQueueWait"),
                  "read latency spent queued (memory clocks)",
                  static_cast<double>(stats_.readQueueWait));
    reg.addScalar(name("readRefreshWait"),
                  "read latency spent waiting out refresh "
                  "(memory clocks)",
                  static_cast<double>(stats_.readRefreshWait));
    reg.addScalar(name("readServiceTime"),
                  "read latency spent in bank access + transfer "
                  "(memory clocks)",
                  static_cast<double>(stats_.readServiceTime));
    reg.addScalar(name("busBusyCycles"),
                  "memory clocks the data bus carried bursts",
                  static_cast<double>(busBusyCycles_));
    const bool any = stats_.reads + stats_.writes > 0;
    reg.addScalar(name("firstArrival"),
                  "arrival of the first request (memory clocks)",
                  any ? static_cast<double>(stats_.firstArrival) : 0.0);
    reg.addScalar(name("lastCompletion"),
                  "completion of the last burst (memory clocks)",
                  static_cast<double>(stats_.lastCompletion));
    for (std::size_t b = 0; b < bankStats_.size(); ++b) {
        const std::string elem = format("bank%zu", b);
        reg.addVectorElem(name("bank.rowHits"), elem,
                          "per-bank row-buffer hits",
                          static_cast<double>(bankStats_[b].rowHits));
        reg.addVectorElem(name("bank.rowMisses"), elem,
                          "per-bank row-buffer misses",
                          static_cast<double>(bankStats_[b].rowMisses));
        reg.addVectorElem(
            name("bank.rowConflicts"), elem,
            "per-bank row-buffer conflicts",
            static_cast<double>(bankStats_[b].rowConflicts));
    }
    reg.addDistribution(name("queueOccupancy"),
                        "request-queue depth at enqueue",
                        queueOccupancy_);
    reg.addDistribution(name("readLatency"),
                        "per-read round-trip latency (memory clocks)",
                        readLatency_);
    reg.addDistribution(name("readLatency.queueWait"),
                        "per-read queue-wait component "
                        "(memory clocks)",
                        readQueueWaitHist_);
    reg.addDistribution(name("readLatency.service"),
                        "per-read service component, refresh included "
                        "(memory clocks)",
                        readServiceHist_);
    reg.addFormula(name("rowHitRate"),
                   "rowHits / (rowHits + rowMisses + rowConflicts)",
                   {{{name("rowHits"), 1.0}},
                    {{name("rowHits"), 1.0},
                     {name("rowMisses"), 1.0},
                     {name("rowConflicts"), 1.0}},
                    1.0});
    reg.addFormula(name("avgReadLatency"),
                   "mean read round-trip latency (memory clocks)",
                   {{{name("totalReadLatency"), 1.0}},
                    {{name("reads"), 1.0}},
                    1.0});
    reg.addFormula(name("busUtilization"),
                   "busBusyCycles / (lastCompletion - firstArrival)",
                   {{{name("busBusyCycles"), 1.0}},
                    {{name("lastCompletion"), 1.0},
                     {name("firstArrival"), -1.0}},
                    1.0});
}

} // namespace scalesim::dram
