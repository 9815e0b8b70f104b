#include "dram/system.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace scalesim::dram
{

double
TraceResult::bytesPerClock() const
{
    const Cycle span = makespan > stats.firstArrival
        ? makespan - stats.firstArrival : 1;
    return static_cast<double>(stats.readBytes + stats.writeBytes)
        / static_cast<double>(span);
}

DramSystem::DramSystem(const DramSystemConfig& cfg)
    : cfg_(cfg), burst_(cfg.timing.burstBytes), nch_(cfg.channels),
      cols_(cfg.timing.colsPerRow()), ranks_(cfg.ranks),
      banks_(cfg.timing.banksPerRank), rows_(cfg.timing.rowsPerBank)
{
    if (cfg_.channels == 0)
        fatal("DRAM system needs at least one channel");
    channels_.reserve(cfg_.channels);
    for (std::uint32_t i = 0; i < cfg_.channels; ++i) {
        channels_.emplace_back(cfg_.timing, cfg_.ranks,
                               cfg_.reorderWindow, cfg_.hitStreakCap,
                               cfg_.pagePolicy);
    }
}

namespace
{

/**
 * XOR-hashed channel selection: folding higher transaction bits into
 * the channel index keeps strided tile fetches (whose strides would
 * otherwise alias onto one channel) spread across all channels, as
 * real memory controllers do with bit-permutation schemes. Consecutive
 * transactions still rotate channels.
 */
std::uint64_t
channelHash(std::uint64_t tx)
{
    return tx ^ (tx >> 6) ^ (tx >> 12) ^ (tx >> 20);
}

} // namespace

DecodedAddr
DramSystem::decode(Addr byte_addr, std::uint32_t& channel) const
{
    DecodedAddr out;
    std::uint64_t rest = burst_.div(byte_addr);
    channel = static_cast<std::uint32_t>(nch_.mod(channelHash(rest)));
    rest = nch_.div(rest);
    out.col = cols_.mod(rest);
    rest = cols_.div(rest);
    out.rank = static_cast<std::uint32_t>(ranks_.mod(rest));
    rest = ranks_.div(rest);
    out.bank = static_cast<std::uint32_t>(banks_.mod(rest));
    rest = banks_.div(rest);
    out.row = rows_.mod(rest);
    return out;
}

Cycle
DramSystem::request(Addr byte_addr, std::uint64_t bytes, bool write,
                    Cycle arrival, LatencySplit* split)
{
    // Each burst is serviced before the next is issued, so it always
    // meets an empty channel queue.
    LatencySplit read_split;
    Cycle completion = arrival;
    Addr addr = byte_addr;
    std::uint64_t remaining = std::max<std::uint64_t>(bytes, 1);
    while (remaining > 0) {
        std::uint32_t ch = 0;
        const DecodedAddr decoded = decode(addr, ch);
        completion = std::max(completion,
                              channels_[ch].serviceArrival(
                                  decoded, write, arrival,
                                  read_split));
        const std::uint64_t chunk = std::min<std::uint64_t>(
            remaining, cfg_.timing.burstBytes);
        addr += chunk;
        remaining -= chunk;
    }
    if (split)
        *split = read_split;
    return completion;
}

TraceResult
DramSystem::runTrace(const std::vector<TraceEntry>& trace)
{
    TraceResult result;
    result.latency.resize(trace.size());
    struct Handle
    {
        std::uint32_t channel;
        std::uint64_t seq;
    };
    std::vector<Handle> handles(trace.size());
    for (std::size_t i = 0; i < trace.size(); ++i) {
        std::uint32_t ch = 0;
        const DecodedAddr decoded = decode(trace[i].byteAddr, ch);
        handles[i] = {ch, channels_[ch].enqueue(decoded, trace[i].write,
                                                trace[i].arrival)};
    }
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const Cycle done = channels_[handles[i].channel].serviceUntil(
            handles[i].seq);
        result.latency[i] = done > trace[i].arrival
            ? done - trace[i].arrival : 0;
    }
    result.stats = totalStats();
    result.makespan = result.stats.lastCompletion;
    return result;
}

DramStats
DramSystem::totalStats() const
{
    DramStats total;
    for (const auto& ch : channels_)
        total.merge(ch.stats());
    return total;
}

const DramStats&
DramSystem::channelStats(std::uint32_t ch) const
{
    if (ch >= channels_.size())
        fatal("channel %u out of range", ch);
    return channels_[ch].stats();
}

const std::vector<BankStats>&
DramSystem::channelBankStats(std::uint32_t ch) const
{
    if (ch >= channels_.size())
        fatal("channel %u out of range", ch);
    return channels_[ch].bankStats();
}

void
DramSystem::registerStats(obs::StatsRegistry& reg,
                          const std::string& prefix) const
{
    auto name = [&](const char* leaf) { return prefix + "." + leaf; };
    const DramStats total = totalStats();
    reg.addScalar(name("channels"), "DRAM channels",
                  static_cast<double>(channels_.size()));
    reg.addScalar(name("reads"), "read bursts serviced (all channels)",
                  static_cast<double>(total.reads));
    reg.addScalar(name("writes"),
                  "write bursts serviced (all channels)",
                  static_cast<double>(total.writes));
    reg.addScalar(name("rowHits"), "row-buffer hits (all channels)",
                  static_cast<double>(total.rowHits));
    reg.addScalar(name("rowMisses"),
                  "row-buffer misses (all channels)",
                  static_cast<double>(total.rowMisses));
    reg.addScalar(name("rowConflicts"),
                  "row-buffer conflicts (all channels)",
                  static_cast<double>(total.rowConflicts));
    reg.addScalar(name("refreshes"),
                  "all-bank refreshes (all channels)",
                  static_cast<double>(total.refreshes));
    reg.addScalar(name("readBytes"), "bytes read (all channels)",
                  static_cast<double>(total.readBytes));
    reg.addScalar(name("writeBytes"), "bytes written (all channels)",
                  static_cast<double>(total.writeBytes));
    reg.addScalar(name("totalReadLatency"),
                  "summed read latency (memory clocks, all channels)",
                  static_cast<double>(total.totalReadLatency));
    reg.addScalar(name("readQueueWait"),
                  "read latency queued (memory clocks, all channels)",
                  static_cast<double>(total.readQueueWait));
    reg.addScalar(name("readRefreshWait"),
                  "read latency in refresh shadow (memory clocks, "
                  "all channels)",
                  static_cast<double>(total.readRefreshWait));
    reg.addScalar(name("readServiceTime"),
                  "read latency in bank access + transfer (memory "
                  "clocks, all channels)",
                  static_cast<double>(total.readServiceTime));
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
    for (std::size_t i = 0; i < channels_.size(); ++i)
        channels_[i].registerStats(reg, prefix + format(".ch%zu", i));
}

DramMemory::DramMemory(const DramConfig& cfg, std::uint32_t word_bytes)
    : system_([&] {
          DramSystemConfig sys;
          sys.timing = timingPreset(cfg.tech);
          sys.channels = cfg.channels;
          sys.ranks = cfg.ranksPerChannel;
          return sys;
      }()),
      wordBytes_(word_bytes == 0 ? 1 : word_bytes),
      coreToMem_(system_.config().timing.clockMhz
                 / (cfg.coreClockMhz > 0 ? cfg.coreClockMhz : 1000.0))
{
}

Cycle
DramMemory::toMem(Cycle core) const
{
    return static_cast<Cycle>(std::llround(
        static_cast<double>(core) * coreToMem_));
}

Cycle
DramMemory::toCore(Cycle mem) const
{
    return static_cast<Cycle>(std::ceil(
        static_cast<double>(mem) / coreToMem_));
}

Cycle
DramMemory::issueRead(Addr addr, Count words, Cycle now)
{
    // The components stay in memory clocks: the CPI-stack layer uses
    // them as apportionment weights, where only the ratios matter.
    LatencySplit split;
    const Cycle done_mem = system_.request(
        addr * wordBytes_, words * wordBytes_, false, toMem(now),
        &split);
    const Cycle done = std::max(now + 1, toCore(done_mem));
    ++stats_.readRequests;
    stats_.readWords += words;
    stats_.totalReadLatency += done - now;
    stats_.readQueueWait += split.queueWait;
    stats_.readRefresh += split.refreshWait;
    stats_.readService += split.service;
    return done;
}

Cycle
DramMemory::issueWrite(Addr addr, Count words, Cycle now)
{
    const Cycle done_mem = system_.request(
        addr * wordBytes_, words * wordBytes_, true, toMem(now));
    const Cycle done = std::max(now + 1, toCore(done_mem));
    ++stats_.writeRequests;
    stats_.writeWords += words;
    stats_.totalWriteLatency += done - now;
    return done;
}

} // namespace scalesim::dram
