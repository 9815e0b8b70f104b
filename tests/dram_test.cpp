/**
 * @file
 * Unit tests for the DRAM substrate: timing presets, row-buffer
 * outcomes and their latency ordering, bank-level parallelism, channel
 * scaling, FR-FCFS reordering, address mapping, refresh, pinned
 * controller goldens, the coupled path's direct service against the
 * queued one, and the clock-domain adapter.
 */

#include <array>
#include <cctype>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/hash.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "dram/system.hpp"

using namespace scalesim;
using namespace scalesim::dram;

namespace
{

DramSystemConfig
config(std::uint32_t channels = 1, const char* tech = "DDR4_2400")
{
    DramSystemConfig cfg;
    cfg.timing = timingPreset(tech);
    cfg.channels = channels;
    return cfg;
}

} // namespace

TEST(Timing, AllPresetsResolve)
{
    for (const auto& name : timingPresetNames()) {
        const DramTiming t = timingPreset(name);
        EXPECT_EQ(t.name, name);
        EXPECT_GT(t.clockMhz, 0.0);
        EXPECT_GT(t.tRCD, 0u);
        EXPECT_GT(t.tRP, 0u);
        EXPECT_GT(t.tCL, 0u);
        // JEDEC invariants.
        EXPECT_GE(t.tRAS, t.tRCD);
        EXPECT_GE(t.tRC, t.tRAS);
        EXPECT_GE(t.rowBytes, t.burstBytes);
        EXPECT_GT(t.colsPerRow(), 0u);
    }
    EXPECT_THROW(timingPreset("DDR9"), FatalError);
}

TEST(Timing, CaseInsensitiveLookup)
{
    EXPECT_EQ(timingPreset("ddr4-2400").name, "DDR4_2400");
    EXPECT_EQ(timingPreset("hbm2").name, "HBM2");
}

TEST(Channel, FirstAccessPaysActivateAndCas)
{
    DramSystem sys(config());
    const DramTiming& t = sys.config().timing;
    const Cycle done = sys.request(0, 64, false, 0);
    // Closed bank: ACT + tRCD + tCL + tBurst lower bound.
    EXPECT_GE(done, t.tRCD + t.tCL + t.tBurst);
    const DramStats stats = sys.totalStats();
    EXPECT_EQ(stats.reads, 1u);
    EXPECT_EQ(stats.rowMisses, 1u);
}

TEST(Channel, RowHitFasterThanConflict)
{
    // Same row twice -> second is a hit.
    DramSystem sys_hit(config());
    sys_hit.request(0, 64, false, 0);
    const Cycle hit_done = sys_hit.request(64, 64, false, 1000);
    EXPECT_EQ(sys_hit.totalStats().rowHits, 1u);

    // Same bank, different row -> conflict (row stride apart).
    DramSystem sys_conf(config());
    const DramTiming& t = sys_conf.config().timing;
    sys_conf.request(0, 64, false, 0);
    // With RoBaRaCoCh and 1 channel, addresses one full row apart in
    // the same bank differ by rowBytes * 1 (col bits exhausted).
    const Addr same_bank_other_row = t.rowBytes
        * t.banksPerRank; // advance past the bank bits
    const Cycle conf_done = sys_conf.request(same_bank_other_row, 64,
                                             false, 1000);
    EXPECT_EQ(sys_conf.totalStats().rowConflicts, 1u);
    EXPECT_LT(hit_done - 1000, conf_done - 1000);
}

TEST(Channel, SequentialStreamMostlyHits)
{
    DramSystem sys(config());
    const DramTiming& t = sys.config().timing;
    for (int i = 0; i < 64; ++i)
        sys.request(static_cast<Addr>(i) * t.burstBytes, t.burstBytes,
                    false, 0);
    const DramStats stats = sys.totalStats();
    EXPECT_GT(stats.rowHitRate(), 0.9);
}

TEST(Channel, RandomRowsMostlyMiss)
{
    DramSystem sys(config());
    const DramTiming& t = sys.config().timing;
    // Stride one full bank's row so each access opens a new row in the
    // same bank.
    const Addr stride = t.rowBytes * t.banksPerRank;
    for (int i = 0; i < 64; ++i)
        sys.request(static_cast<Addr>(i) * stride, 64, false, 0);
    const DramStats stats = sys.totalStats();
    EXPECT_LT(stats.rowHitRate(), 0.1);
    EXPECT_GE(stats.rowConflicts, 60u);
}

TEST(Channel, ReadLatencyDecompositionConserves)
{
    // Queue wait + refresh wait + service time must account for every
    // read-latency cycle — the component split is exact, not sampled.
    DramSystem sys(config());
    const DramTiming& t = sys.config().timing;
    const Addr stride = t.rowBytes * t.banksPerRank;
    for (int i = 0; i < 256; ++i) {
        // Mix row hits (sequential) with conflicts (bank-row stride)
        // and bursts arriving at the same cycle to exercise queueing.
        const Addr addr = (i % 2 == 0)
            ? static_cast<Addr>(i) * t.burstBytes
            : static_cast<Addr>(i) * stride;
        sys.request(addr, t.burstBytes, false,
                    static_cast<Cycle>(i / 8));
    }
    const DramStats stats = sys.totalStats();
    ASSERT_EQ(stats.reads, 256u);
    EXPECT_GT(stats.totalReadLatency, 0u);
    EXPECT_GT(stats.readServiceTime, 0u);
    EXPECT_EQ(stats.readQueueWait + stats.readRefreshWait
                  + stats.readServiceTime,
              stats.totalReadLatency);
}

TEST(Channel, BankParallelismBeatsSameBank)
{
    // N requests spread over banks finish sooner than N conflicts in
    // one bank.
    auto run = [](bool spread) {
        DramSystem sys(config());
        const DramTiming& t = sys.config().timing;
        Cycle last = 0;
        for (int i = 0; i < 16; ++i) {
            const Addr addr = spread
                ? static_cast<Addr>(i) * t.rowBytes // distinct banks
                : static_cast<Addr>(i) * t.rowBytes * t.banksPerRank;
            last = std::max(last, sys.request(addr, 64, false, 0));
        }
        return last;
    };
    EXPECT_LT(run(true), run(false));
}

TEST(System, ChannelScalingIncreasesThroughput)
{
    auto makespan = [](std::uint32_t channels) {
        DramSystem sys(config(channels));
        const DramTiming& t = sys.config().timing;
        Cycle last = 0;
        for (int i = 0; i < 512; ++i) {
            last = std::max(last,
                            sys.request(static_cast<Addr>(i)
                                            * t.burstBytes,
                                        t.burstBytes, false, 0));
        }
        return last;
    };
    const Cycle one = makespan(1);
    const Cycle four = makespan(4);
    EXPECT_LT(four, one);
    // Should be roughly proportional for a streaming pattern.
    EXPECT_LT(four, one / 2);
}

TEST(System, DecodeRoundTripsDistinctly)
{
    DramSystem sys(config(2));
    const DramTiming& t = sys.config().timing;
    std::uint32_t ch0 = 99, ch1 = 99;
    const DecodedAddr a = sys.decode(0, ch0);
    const DecodedAddr b = sys.decode(t.burstBytes, ch1);
    // Consecutive bursts interleave channels under RoBaRaCoCh.
    EXPECT_NE(ch0, ch1);
    EXPECT_EQ(a.row, b.row);
}

namespace
{

enum class Field { Ch, Col, Rank, Bank, Row };

/** decode() by plain division, peeling `order` lowest field first. */
DecodedAddr
plainDecode(const DramSystemConfig& cfg, const std::vector<Field>& order,
            Addr byte_addr, std::uint32_t& channel)
{
    const DramTiming& t = cfg.timing;
    std::uint64_t rest = byte_addr / t.burstBytes;
    DecodedAddr out;
    for (const Field f : order) {
        switch (f) {
          case Field::Ch: {
            const std::uint64_t h = rest ^ (rest >> 6) ^ (rest >> 12)
                ^ (rest >> 20);
            channel = static_cast<std::uint32_t>(h % cfg.channels);
            rest /= cfg.channels;
            break;
          }
          case Field::Col:
            out.col = rest % t.colsPerRow();
            rest /= t.colsPerRow();
            break;
          case Field::Rank:
            out.rank = static_cast<std::uint32_t>(rest % cfg.ranks);
            rest /= cfg.ranks;
            break;
          case Field::Bank:
            out.bank = static_cast<std::uint32_t>(rest % t.banksPerRank);
            rest /= t.banksPerRank;
            break;
          case Field::Row:
            out.row = rest % t.rowsPerBank;
            break;
        }
    }
    return out;
}

} // namespace

TEST(System, DecodeMatchesPlainDivisionForAnyGeometry)
{
    // decode() shifts and masks by power-of-two field sizes and
    // divides by the others; either way it must peel the same fields
    // as plain division does.
    using F = Field;
    const std::pair<const char*, std::vector<Field>> mappings[] = {
        {"RoBaRaCoCh", {F::Ch, F::Col, F::Rank, F::Bank, F::Row}},
    };
    for (const auto& [name, order] : mappings) {
        for (std::uint32_t geometry = 0; geometry < 5 * 3 * 2; ++geometry) {
            DramSystemConfig cfg = config(
                std::array<std::uint32_t, 5>{1, 2, 3, 4, 6}[geometry % 5]);
            cfg.ranks = 1 + geometry / 5 % 3;
            if (geometry >= 15) {
                cfg.timing.banksPerRank = 12;
                cfg.timing.rowsPerBank = 3000;
            }
            DramSystem sys(cfg);
            for (Addr a = 0; a < (Addr{1} << 34); a = a * 3 + 4093) {
                std::uint32_t want_ch = 0;
                const DecodedAddr want = plainDecode(cfg, order, a,
                                                     want_ch);
                std::uint32_t ch = 99;
                const DecodedAddr got = sys.decode(a, ch);
                ASSERT_EQ(ch, want_ch) << name << " " << geometry;
                ASSERT_EQ(got.col, want.col) << name << " " << geometry;
                ASSERT_EQ(got.rank, want.rank) << name << " " << geometry;
                ASSERT_EQ(got.bank, want.bank) << name << " " << geometry;
                ASSERT_EQ(got.row, want.row) << name << " " << geometry;
            }
        }
    }
}

TEST(Trace, FrFcfsReorderingHelpsInterleavedRows)
{
    // Two interleaved row streams: reordering services row hits first.
    const DramTiming t = timingPreset("DDR4_2400");
    auto run = [&](std::uint32_t window) {
        DramSystemConfig cfg = config();
        cfg.reorderWindow = window;
        DramSystem sys(cfg);
        std::vector<TraceEntry> trace;
        const Addr row_a = 0;
        const Addr row_b = t.rowBytes * t.banksPerRank; // same bank
        for (int i = 0; i < 32; ++i) {
            trace.push_back({0, row_a + static_cast<Addr>(i) * 64,
                             false});
            trace.push_back({0, row_b + static_cast<Addr>(i) * 64,
                             false});
        }
        return sys.runTrace(trace);
    };
    const TraceResult fcfs = run(1);
    const TraceResult frfcfs = run(64);
    EXPECT_GT(frfcfs.stats.rowHits, fcfs.stats.rowHits);
    EXPECT_LE(frfcfs.makespan, fcfs.makespan);
}

TEST(Trace, LatenciesReportedPerRequest)
{
    DramSystem sys(config());
    std::vector<TraceEntry> trace;
    for (int i = 0; i < 8; ++i)
        trace.push_back({static_cast<Cycle>(i * 100),
                         static_cast<Addr>(i) * 64, i % 2 == 1});
    const TraceResult result = sys.runTrace(trace);
    ASSERT_EQ(result.latency.size(), trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        if (trace[i].write) {
            // Posted writes may be accepted instantly.
            EXPECT_GE(result.latency[i], 0u);
        } else {
            EXPECT_GT(result.latency[i], 0u);
        }
    }
    EXPECT_EQ(result.stats.reads + result.stats.writes, 8u);
    EXPECT_GT(result.bytesPerClock(), 0.0);
}

TEST(Trace, WritesArePosted)
{
    DramSystem sys(config());
    std::vector<TraceEntry> trace = {{0, 0, true}, {0, 64, false}};
    const TraceResult result = sys.runTrace(trace);
    // The write completes at its column command; the read carries the
    // full data latency.
    EXPECT_LT(result.latency[0], result.latency[1] + 1000);
    EXPECT_EQ(result.stats.writes, 1u);
}

TEST(DramMemory, ClockDomainConversion)
{
    DramConfig cfg;
    cfg.tech = "DDR4_2400"; // 1200 MHz controller
    cfg.coreClockMhz = 600.0;
    DramMemory mem(cfg, 1);
    EXPECT_EQ(mem.toMem(100), 200u);
    EXPECT_EQ(mem.toCore(200), 100u);
    const Cycle done = mem.issueRead(0, 64, 10);
    EXPECT_GT(done, 10u);
    EXPECT_EQ(mem.stats().readRequests, 1u);
}

TEST(DramMemory, MultiburstRequestsSplit)
{
    DramConfig cfg;
    DramMemory mem(cfg, 1);
    mem.issueRead(0, 256, 0); // 256 bytes = 4 bursts of 64
    EXPECT_EQ(mem.system().totalStats().reads, 4u);
}

TEST(DramStats, MergeAccumulates)
{
    DramStats a, b;
    a.reads = 3;
    a.rowHits = 2;
    a.lastCompletion = 10;
    b.reads = 4;
    b.rowConflicts = 1;
    b.lastCompletion = 20;
    a.merge(b);
    EXPECT_EQ(a.reads, 7u);
    EXPECT_EQ(a.rowHits, 2u);
    EXPECT_EQ(a.rowConflicts, 1u);
    EXPECT_EQ(a.lastCompletion, 20u);
}

TEST(Refresh, PeriodicRefreshesAreCounted)
{
    DramSystem sys(config());
    const DramTiming& t = sys.config().timing;
    // Requests spread far beyond several tREFI periods.
    for (int i = 0; i < 10; ++i) {
        sys.request(static_cast<Addr>(i) * 64, 64, false,
                    static_cast<Cycle>(i) * t.tREFI * 2);
    }
    EXPECT_GE(sys.totalStats().refreshes, 10u);
}

TEST(Refresh, RequestDuringRefreshWaits)
{
    DramSystem sys(config());
    const DramTiming& t = sys.config().timing;
    // Land a request exactly at the start of the first refresh window.
    const Cycle done = sys.request(0, 64, false, t.tREFI);
    // It cannot complete before the refresh finishes plus a full
    // closed-bank access.
    EXPECT_GE(done, t.tREFI + t.tRFC + t.tRCD + t.tCL + t.tBurst);
}

TEST(Refresh, ClosesOpenRows)
{
    DramSystem sys(config());
    const DramTiming& t = sys.config().timing;
    sys.request(0, 64, false, 0);
    // Same row, but after a refresh window: must not be a row hit.
    sys.request(64, 64, false, t.tREFI + 1);
    const DramStats stats = sys.totalStats();
    EXPECT_EQ(stats.rowHits, 0u);
    EXPECT_EQ(stats.rowMisses, 2u);
}

TEST(Refresh, TwoRanksRefreshIndependently)
{
    // tREFI/tRFC are per-rank: each rank follows its own cadence and a
    // refresh closes only that rank's row buffers. The old channel-wide
    // nextRefresh_ both undercounted (one shared cadence for two
    // ranks) and closed every rank's rows on each refresh.
    DramTiming t = timingPreset("DDR4_2400");
    t.tREFI = 1000;
    t.tRFC = 100;
    Channel ch(t, 2);
    auto read = [&](std::uint32_t rank, Cycle arrival) {
        DecodedAddr a;
        a.rank = rank;
        return ch.serviceUntil(ch.enqueue(a, false, arrival));
    };
    read(0, 1000); // lands in rank 0's first window: 1 refresh
    read(1, 1500); // rank 1 catches up its own missed window: +1
    read(0, 3500); // rank 0 catches up the 2000/3000 windows: +2
    read(1, 3600); // rank 1 catches up the same two windows: +2
    EXPECT_EQ(ch.stats().refreshes, 6u);
    // Every access found its bank closed (first touch or refreshed).
    EXPECT_EQ(ch.stats().rowMisses, 4u);
    EXPECT_EQ(ch.stats().rowHits, 0u);
}

TEST(Refresh, ClosedFormCatchUpCountIsExact)
{
    // One request after a gap spanning many tREFI windows: the
    // closed-form catch-up must count exactly one refresh per elapsed
    // window, floor((dt - tRFC - next) / tREFI) + 1 of them.
    DramTiming t = timingPreset("DDR4_2400");
    t.tREFI = 1000;
    t.tRFC = 100;
    Channel ch(t, 1);
    DecodedAddr a;
    // Windows start at 1000; ends 1100, 2100, ..., 57100 <= 57321.
    ch.serviceUntil(ch.enqueue(a, false, 57'321));
    EXPECT_EQ(ch.stats().refreshes, 57u);
}

// ---------------------------------------------------------------------
// Controller goldens. Each Engine.Ab* case pins the per-request
// latencies (FNV-1a digest), makespan and every DramStats field that
// the event-skipping controller produced on its traffic shape while a
// stepped reference engine still existed and matched it exactly.
// ---------------------------------------------------------------------

namespace
{

/** Every DramStats field, in declaration order. */
struct StatsGolden
{
    Count reads, writes, rowHits, rowMisses, rowConflicts, refreshes;
    std::uint64_t readBytes, writeBytes;
    Cycle totalReadLatency, readQueueWait, readRefreshWait,
        readServiceTime, firstArrival, lastCompletion;
};

void
expectStats(const DramStats& s, const StatsGolden& g, const char* what)
{
    EXPECT_EQ(s.reads, g.reads) << what;
    EXPECT_EQ(s.writes, g.writes) << what;
    EXPECT_EQ(s.rowHits, g.rowHits) << what;
    EXPECT_EQ(s.rowMisses, g.rowMisses) << what;
    EXPECT_EQ(s.rowConflicts, g.rowConflicts) << what;
    EXPECT_EQ(s.refreshes, g.refreshes) << what;
    EXPECT_EQ(s.readBytes, g.readBytes) << what;
    EXPECT_EQ(s.writeBytes, g.writeBytes) << what;
    EXPECT_EQ(s.totalReadLatency, g.totalReadLatency) << what;
    EXPECT_EQ(s.readQueueWait, g.readQueueWait) << what;
    EXPECT_EQ(s.readRefreshWait, g.readRefreshWait) << what;
    EXPECT_EQ(s.readServiceTime, g.readServiceTime) << what;
    EXPECT_EQ(s.firstArrival, g.firstArrival) << what;
    EXPECT_EQ(s.lastCompletion, g.lastCompletion) << what;
}

std::uint64_t
cycleDigest(const std::vector<Cycle>& cycles)
{
    return Fnv1a::of(cycles.data(), cycles.size() * sizeof(Cycle));
}

/** Run `trace` and compare it with the pinned golden. */
void
expectTraceGolden(const DramSystemConfig& cfg,
                  const std::vector<TraceEntry>& trace,
                  std::uint64_t latency_digest, Cycle makespan,
                  const StatsGolden& stats, const char* what)
{
    DramSystem sys(cfg);
    const TraceResult r = sys.runTrace(trace);
    ASSERT_EQ(r.latency.size(), trace.size()) << what;
    EXPECT_EQ(cycleDigest(r.latency), latency_digest) << what;
    EXPECT_EQ(r.makespan, makespan) << what;
    expectStats(r.stats, stats, what);
}

} // namespace

TEST(Engine, AbStreamingIdentical)
{
    const DramTiming t = timingPreset("DDR4_2400");
    std::vector<TraceEntry> trace;
    for (int i = 0; i < 256; ++i)
        trace.push_back({static_cast<Cycle>(i) * 2,
                         static_cast<Addr>(i) * t.burstBytes, false});
    expectTraceGolden(config(), trace, 0x9e45221f6025cbe1ull, 1631,
                      {256, 0, 254, 2, 0, 0, 16384, 0, 155136, 148405,
                       0, 6731, 0, 1631},
                      "streaming");
}

TEST(Engine, AbRowThrashIdentical)
{
    const DramTiming t = timingPreset("DDR4_2400");
    const Addr stride = t.rowBytes * t.banksPerRank;
    std::vector<TraceEntry> trace;
    for (int i = 0; i < 128; ++i)
        trace.push_back({static_cast<Cycle>(i) * 7,
                         static_cast<Addr>(i % 3) * stride, false});
    expectTraceGolden(config(), trace, 0x27dc8c54cb8609f4ull, 1168,
                      {128, 0, 118, 1, 9, 0, 8192, 0, 24240, 20532, 0,
                       3708, 0, 1168},
                      "row thrash");
}

TEST(Engine, AbMixedReadWriteIdentical)
{
    const DramTiming t = timingPreset("DDR4_2400");
    std::vector<TraceEntry> trace;
    for (int i = 0; i < 128; ++i) {
        // Pseudo-random bank/row walk with read/write turnarounds.
        const Addr addr = static_cast<Addr>((i * 2654435761u) % 4096)
            * t.burstBytes;
        trace.push_back({static_cast<Cycle>(i) * 5, addr, i % 3 == 0});
    }
    expectTraceGolden(config(), trace, 0x3e7504eff7653734ull, 2103,
                      {85, 43, 84, 16, 28, 0, 5440, 2752, 55906, 52840,
                       0, 3066, 0, 2103},
                      "mixed rw");
}

TEST(Engine, AbLongIdleGapsIdentical)
{
    // Idle stretches spanning 1, 40, and 500 tREFI windows between
    // bursts of traffic: the closed-form refresh catch-up must land
    // on the bank state and refresh count of one catch-up per window.
    const DramTiming t = timingPreset("DDR4_2400");
    std::vector<TraceEntry> trace;
    Cycle now = 0;
    const Cycle gaps[] = {t.tREFI + 3, 40 * t.tREFI + 17,
                          500 * t.tREFI + 1};
    for (const Cycle gap : gaps) {
        for (int i = 0; i < 16; ++i)
            trace.push_back({now + static_cast<Cycle>(i),
                             static_cast<Addr>(i) * t.burstBytes,
                             false});
        now += gap;
    }
    expectTraceGolden(config(), trace, 0xa90df933c359ab97ull, 384306,
                      {48, 0, 45, 3, 0, 41, 3072, 0, 17480, 15330, 817,
                       1333, 0, 384306},
                      "idle gaps");
}

TEST(Engine, AbTwoRanksFourChannelsIdentical)
{
    const DramTiming t = timingPreset("DDR4_2400");
    DramSystemConfig cfg = config(4);
    cfg.ranks = 2;
    std::vector<TraceEntry> trace;
    for (int i = 0; i < 256; ++i) {
        const Addr addr = static_cast<Addr>((i * 40503u) % 16384)
            * t.burstBytes;
        trace.push_back({static_cast<Cycle>(i) * 3, addr, i % 4 == 0});
    }
    expectTraceGolden(cfg, trace, 0x29e7edc87eb86531ull, 1046,
                      {192, 64, 128, 128, 0, 0, 12288, 4096, 38639,
                       31847, 0, 6792, 0, 1046},
                      "two ranks four channels");
}

TEST(Engine, AbClosedPageIdentical)
{
    const DramTiming t = timingPreset("DDR4_2400");
    DramSystemConfig cfg = config();
    cfg.pagePolicy = PagePolicy::Closed;
    std::vector<TraceEntry> trace;
    for (int i = 0; i < 128; ++i)
        trace.push_back({static_cast<Cycle>(i) * 11,
                         static_cast<Addr>(i) * t.burstBytes, false});
    expectTraceGolden(cfg, trace, 0x8ee1324f0d037429ull, 7076,
                      {128, 0, 0, 128, 0, 0, 8192, 0, 369280, 359664, 0,
                       9616, 0, 7076},
                      "closed page");
}

TEST(Engine, AbOutOfOrderArrivalsIdentical)
{
    // Arrival times deliberately not monotone in enqueue order — the
    // ordered-insert queue must service them earliest first.
    const DramTiming t = timingPreset("DDR4_2400");
    std::vector<TraceEntry> trace;
    for (int i = 0; i < 64; ++i) {
        const Cycle arrival = static_cast<Cycle>((i * 37) % 64) * 50;
        trace.push_back({arrival, static_cast<Addr>(i) * t.burstBytes,
                         false});
    }
    expectTraceGolden(config(), trace, 0x5896d05e15812417ull, 3170,
                      {64, 0, 63, 1, 0, 0, 4096, 0, 1378, 21, 0, 1357,
                       0, 3170},
                      "out-of-order arrivals");
}

TEST(Engine, AbCoupledRequestFlowIdentical)
{
    // The synchronous request() path (scratchpad flow) drains after
    // each enqueue.
    const DramTiming t = timingPreset("DDR4_2400");
    DramSystem sys(config());
    std::vector<Cycle> done;
    for (int i = 0; i < 96; ++i) {
        const Addr addr = static_cast<Addr>((i * 131) % 1024)
            * t.burstBytes;
        done.push_back(sys.request(addr, 3 * t.burstBytes, i % 5 == 0,
                                   static_cast<Cycle>(i) * 20));
    }
    EXPECT_EQ(cycleDigest(done), 0xd8f54025cdccf409ull);
    EXPECT_EQ(done.back(), 2240u);
    expectStats(sys.totalStats(),
                {228, 60, 280, 8, 0, 0, 14592, 3840, 58398, 52069, 0,
                 6329, 0, 2256},
                "coupled flow");
}

namespace
{

/** Per-channel part of a stats dump (the dram.chN.* lines). */
std::string
channelDump(const obs::StatsRegistry& reg)
{
    std::ostringstream all;
    reg.dump(all);
    std::istringstream lines(all.str());
    std::string out;
    for (std::string line; std::getline(lines, line);) {
        if (line.rfind("dram.ch", 0) == 0 && line.size() > 7
            && std::isdigit(static_cast<unsigned char>(line[7])))
            out += line + "\n";
    }
    return out;
}

/** One coupled request of the direct-vs-queued stream. */
struct CoupledRequest
{
    Addr addr;
    std::uint64_t bytes;
    bool write;
    Cycle arrival;
};

/**
 * Reads and writes of one to three bursts over 2 channels x 2 ranks:
 * sequential runs (row hits), scattered addresses (misses and
 * conflicts), and jumps that skip refresh windows or land inside one.
 */
std::vector<CoupledRequest>
coupledStream(const DramTiming& t)
{
    Rng rng(0xd1ec7);
    std::vector<CoupledRequest> out;
    Cycle now = 0;
    Addr seq_addr = 0;
    for (int i = 0; i < 3000; ++i) {
        const std::uint64_t pick = rng.below(10);
        if (pick == 0) {
            // Skip whole refresh intervals, landing inside a window.
            now = (now / t.tREFI + 1 + rng.below(3)) * t.tREFI
                + rng.below(t.tRFC);
        } else {
            now += rng.below(40);
        }
        Addr addr;
        if (pick < 6) {
            addr = seq_addr;
            seq_addr += t.burstBytes;
        } else {
            addr = rng.below(1u << 24) * t.burstBytes;
        }
        out.push_back({addr, t.burstBytes * rng.range(1, 3),
                       rng.below(3) == 0, now});
    }
    return out;
}

} // namespace

TEST(Engine, CoupledDirectServiceMatchesQueuedService)
{
    // request() services each burst on arrival at an empty channel
    // queue. Pushing the same bursts one at a time through enqueue()
    // + serviceUntil() must give the same completions and the same
    // per-channel stats dumps, histograms included.
    DramSystemConfig cfg = config(2);
    cfg.ranks = 2;
    const DramTiming& t = cfg.timing;
    DramSystem direct(cfg);
    std::vector<Channel> queued;
    for (std::uint32_t c = 0; c < cfg.channels; ++c) {
        queued.emplace_back(t, cfg.ranks, cfg.reorderWindow,
                            cfg.hitStreakCap, cfg.pagePolicy);
    }
    for (const CoupledRequest& req : coupledStream(t)) {
        const DramStats before = direct.totalStats();
        LatencySplit split;
        const Cycle got = direct.request(req.addr, req.bytes, req.write,
                                         req.arrival, &split);
        const DramStats after = direct.totalStats();
        // The returned split is exactly what the request added.
        EXPECT_EQ(split.queueWait,
                  after.readQueueWait - before.readQueueWait);
        EXPECT_EQ(split.refreshWait,
                  after.readRefreshWait - before.readRefreshWait);
        EXPECT_EQ(split.service,
                  after.readServiceTime - before.readServiceTime);

        Cycle want = req.arrival;
        for (std::uint64_t off = 0; off < req.bytes;
             off += t.burstBytes) {
            std::uint32_t ch = 0;
            const DecodedAddr decoded = direct.decode(req.addr + off, ch);
            Channel& channel = queued[ch];
            want = std::max(want, channel.serviceUntil(channel.enqueue(
                                      decoded, req.write, req.arrival)));
        }
        ASSERT_EQ(got, want) << "request at " << req.arrival;
    }

    obs::StatsRegistry direct_reg;
    direct.registerStats(direct_reg, "dram");
    obs::StatsRegistry queued_reg;
    for (std::size_t c = 0; c < queued.size(); ++c)
        queued[c].registerStats(queued_reg, format("dram.ch%zu", c));
    const std::string direct_dump = channelDump(direct_reg);
    EXPECT_EQ(direct_dump, channelDump(queued_reg));
    EXPECT_NE(direct_dump.find("queueOccupancy"), std::string::npos);

    // The stream reaches every row outcome and the refresh shadow.
    const DramStats total = direct.totalStats();
    EXPECT_GT(total.rowHits, 0u);
    EXPECT_GT(total.rowMisses, 0u);
    EXPECT_GT(total.rowConflicts, 0u);
    EXPECT_GT(total.refreshes, 0u);
    EXPECT_GT(total.readRefreshWait, 0u);
    EXPECT_GT(total.writes, 0u);
}

TEST(Engine, ServiceArrivalRejectsAPendingQueue)
{
    // The direct path is only exact when nothing is queued ahead of
    // the burst; a caller that mixes it with enqueue() is a bug.
    Channel ch(timingPreset("DDR4_2400"), 1);
    ch.enqueue(DecodedAddr{}, false, 0);
    LatencySplit split;
    EXPECT_DEATH(ch.serviceArrival(DecodedAddr{}, false, 10, split),
                 "already pending");
}

TEST(DramMemory, LatencySplitIsTheSystemsSplit)
{
    // DramMemory takes each read's split from request() instead of
    // diffing the channel stats; over a run the two must agree.
    DramConfig dcfg;
    dcfg.channels = 2;
    dcfg.ranksPerChannel = 2;
    DramMemory mem(dcfg, 2);
    const DramTiming& t = mem.system().config().timing;
    for (const CoupledRequest& req : coupledStream(t)) {
        const Cycle now = req.arrival / 2;
        const Count words = req.bytes / 2;
        if (req.write)
            mem.issueWrite(req.addr / 2, words, now);
        else
            mem.issueRead(req.addr / 2, words, now);
    }
    const DramStats sys = mem.system().totalStats();
    const systolic::MemoryStats& split = mem.stats();
    EXPECT_GT(split.readRefresh, 0u);
    EXPECT_EQ(split.readQueueWait, sys.readQueueWait);
    EXPECT_EQ(split.readRefresh, sys.readRefreshWait);
    EXPECT_EQ(split.readService, sys.readServiceTime);
    EXPECT_EQ(split.readQueueWait + split.readRefresh
                  + split.readService,
              sys.totalReadLatency);
}

TEST(Channel, GappedArrivalsServiceEarliestFirst)
{
    // Regression for the pickNext fallback: when no pending request
    // has arrived yet, the scheduler must jump to the earliest
    // arrival — not whichever request happened to be enqueued first.
    const DramTiming t = timingPreset("DDR4_2400");
    Channel ch(t, 1);
    DecodedAddr late; // same bank, row 1
    late.row = 1;
    DecodedAddr early; // same bank, row 0
    const std::uint64_t late_seq = ch.enqueue(late, false, 9'000);
    const std::uint64_t early_seq = ch.enqueue(early, false, 1'000);
    const Cycle late_done = ch.serviceUntil(late_seq);
    const Cycle early_done = ch.serviceUntil(early_seq);
    EXPECT_LT(early_done, late_done);
    // The early request opened the bank (miss); the late one then
    // conflicted — service order row 0 before row 1.
    EXPECT_EQ(ch.stats().rowMisses, 1u);
    EXPECT_EQ(ch.stats().rowConflicts, 1u);
}

TEST(Refresh, AllPresetsHaveRefreshTiming)
{
    for (const auto& name : timingPresetNames()) {
        const DramTiming t = timingPreset(name);
        EXPECT_GT(t.tREFI, t.tRFC) << name;
        EXPECT_GT(t.tRFC, 0u) << name;
    }
}

/** Property sweep over every DRAM technology preset. */
class PresetSweep : public ::testing::TestWithParam<std::string>
{
};

TEST_P(PresetSweep, FirstAccessLatencyLowerBound)
{
    DramSystem sys(config(1, GetParam().c_str()));
    const DramTiming& t = sys.config().timing;
    const Cycle done = sys.request(0, t.burstBytes, false, 0);
    EXPECT_GE(done, t.tRCD + t.tCL + t.tBurst);
    EXPECT_LE(done, t.tRC + t.tCL + t.tBurst + t.tRFC);
}

TEST_P(PresetSweep, StreamingHitsRows)
{
    DramSystem sys(config(1, GetParam().c_str()));
    const DramTiming& t = sys.config().timing;
    for (int i = 0; i < 32; ++i)
        sys.request(static_cast<Addr>(i) * t.burstBytes, t.burstBytes,
                    false, 0);
    EXPECT_GT(sys.totalStats().rowHitRate(), 0.8);
}

TEST_P(PresetSweep, WritesThenReadsHonorTurnaround)
{
    DramSystem sys(config(1, GetParam().c_str()));
    const DramTiming& t = sys.config().timing;
    const Cycle w = sys.request(0, t.burstBytes, true, 0);
    const Cycle r = sys.request(t.burstBytes, t.burstBytes, false, w);
    // The read's data cannot arrive before write data + tWTR + tCL.
    EXPECT_GE(r, w + t.tWTR);
}

INSTANTIATE_TEST_SUITE_P(
    AllPresets, PresetSweep,
    ::testing::Values("DDR3_1600", "DDR4_2400", "DDR4_3200",
                      "LPDDR4_3200", "GDDR5_6000", "HBM2"),
    [](const auto& tpi) { return tpi.param; });

TEST(Channel, FawThrottlesActivationBursts)
{
    // Five activations to distinct banks: the fifth waits for tFAW.
    DramSystem sys(config());
    const DramTiming& t = sys.config().timing;
    Cycle completions[5];
    for (int i = 0; i < 5; ++i) {
        completions[i] = sys.request(
            static_cast<Addr>(i) * t.rowBytes, 64, false, 0);
    }
    // Lower bound: the fifth ACT waits until first ACT + tFAW.
    EXPECT_GE(completions[4], t.tFAW + t.tRCD + t.tCL + t.tBurst);
}

TEST(PagePolicy, ClosedPageNeverHitsNorConflicts)
{
    DramSystemConfig cfg = config();
    cfg.pagePolicy = PagePolicy::Closed;
    DramSystem sys(cfg);
    const DramTiming& t = sys.config().timing;
    for (int i = 0; i < 32; ++i)
        sys.request(static_cast<Addr>(i) * t.burstBytes, 64, false, 0);
    const DramStats stats = sys.totalStats();
    EXPECT_EQ(stats.rowHits, 0u);
    EXPECT_EQ(stats.rowConflicts, 0u);
    EXPECT_EQ(stats.rowMisses, 32u);
}

TEST(PagePolicy, ClosedBeatsOpenOnRowThrash)
{
    // Alternating rows in one bank with idle gaps: open-page exposes
    // the precharge (tRP) on every access's critical path; closed-page
    // precharges during the gap, paying only ACT + CAS.
    const DramTiming t = timingPreset("DDR4_2400");
    auto total_latency = [&](PagePolicy policy) {
        DramSystemConfig cfg = config();
        cfg.pagePolicy = policy;
        DramSystem sys(cfg);
        const Addr stride = t.rowBytes * t.banksPerRank;
        Cycle total = 0;
        for (int i = 0; i < 64; ++i) {
            const Cycle arrival = static_cast<Cycle>(i) * 200;
            const Cycle done = sys.request(
                (i % 2) ? stride : 0, 64, false, arrival);
            total += done - arrival;
        }
        return total;
    };
    EXPECT_LT(total_latency(PagePolicy::Closed),
              total_latency(PagePolicy::Open));
}

TEST(PagePolicy, OpenBeatsClosedOnStreaming)
{
    const DramTiming t = timingPreset("DDR4_2400");
    auto makespan = [&](PagePolicy policy) {
        DramSystemConfig cfg = config();
        cfg.pagePolicy = policy;
        DramSystem sys(cfg);
        Cycle last = 0;
        for (int i = 0; i < 64; ++i) {
            last = std::max(last, sys.request(
                static_cast<Addr>(i) * t.burstBytes, 64, false, 0));
        }
        return last;
    };
    EXPECT_LT(makespan(PagePolicy::Open), makespan(PagePolicy::Closed));
}
