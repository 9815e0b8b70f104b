/**
 * @file
 * Multi-channel DRAM system: address decoding across channels, the
 * coupled request API used by the scratchpad, a Ramulator-style
 * trace-driven API, and the MainMemory adapter that bridges core and
 * memory clock domains.
 */

#ifndef SCALESIM_DRAM_SYSTEM_HH
#define SCALESIM_DRAM_SYSTEM_HH

#include <bit>
#include <memory>
#include <vector>

#include "common/config.hpp"
#include "dram/controller.hpp"
#include "systolic/memory.hpp"

namespace scalesim::dram
{

/** Full memory-system configuration. */
struct DramSystemConfig
{
    DramTiming timing;
    std::uint32_t channels = 1;
    std::uint32_t ranks = 1;
    std::uint32_t reorderWindow = 32;
    std::uint32_t hitStreakCap = 16;
    PagePolicy pagePolicy = PagePolicy::Open;
};

/** One entry of an externally supplied demand trace (§V-B Step 1). */
struct TraceEntry
{
    Cycle arrival = 0; ///< memory clocks
    Addr byteAddr = 0;
    bool write = false;
};

/** Result of a trace-driven simulation (§V-B Step 2). */
struct TraceResult
{
    /** Round-trip latency of each entry, in memory clocks. */
    std::vector<Cycle> latency;
    DramStats stats;
    /** Last data completion, in memory clocks. */
    Cycle makespan = 0;

    /** Achieved read+write bandwidth in bytes per memory clock. */
    double bytesPerClock() const;
};

/** The multi-channel memory system. */
class DramSystem
{
  public:
    explicit DramSystem(const DramSystemConfig& cfg);

    const DramSystemConfig& config() const { return cfg_; }

    /**
     * Decode a byte address, RoBaRaCoCh order (ch : col : rank : bank
     * : row, lowest bits first), so consecutive bursts interleave
     * channels; channel index returned separately.
     */
    DecodedAddr decode(Addr byte_addr, std::uint32_t& channel) const;

    /**
     * Coupled request: `bytes` are split into bursts on consecutive
     * addresses, each serviced on arrival at its channel; returns the
     * completion of the last burst, in memory clocks. When `split` is
     * given, it receives the summed latency split of the read bursts.
     */
    Cycle request(Addr byte_addr, std::uint64_t bytes, bool write,
                  Cycle arrival, LatencySplit* split = nullptr);

    /** Ramulator-style batch simulation with FR-FCFS reordering. */
    TraceResult runTrace(const std::vector<TraceEntry>& trace);

    /** Statistics summed across channels. */
    DramStats totalStats() const;
    const DramStats& channelStats(std::uint32_t ch) const;
    std::uint32_t channels() const { return cfg_.channels; }

    /** Per-bank stats of one channel (rank-major). */
    const std::vector<BankStats>&
    channelBankStats(std::uint32_t ch) const;

    /**
     * Register aggregate stats under `prefix` (e.g. "dram") and each
     * channel's stats under `prefix.chN` — per-bank row outcome
     * vectors, queue-occupancy distributions, bus utilization.
     */
    void registerStats(obs::StatsRegistry& reg,
                       const std::string& prefix) const;

  private:
    /**
     * x / d and x % d by shift and mask when d is a power of two, as
     * in every built-in geometry: decode() runs once per burst and
     * makes ten of them, each a 64-bit division otherwise.
     */
    class Divisor
    {
      public:
        explicit Divisor(std::uint64_t d)
            : d_(d), shift_(std::has_single_bit(d)
                                ? std::countr_zero(d) : -1)
        {
        }
        std::uint64_t
        div(std::uint64_t x) const
        {
            return shift_ >= 0 ? x >> shift_ : x / d_;
        }
        std::uint64_t
        mod(std::uint64_t x) const
        {
            return shift_ >= 0 ? x & (d_ - 1) : x % d_;
        }

      private:
        std::uint64_t d_;
        int shift_;
    };

    DramSystemConfig cfg_;
    Divisor burst_, nch_, cols_, ranks_, banks_, rows_;
    std::vector<Channel> channels_;
};

/**
 * systolic::MainMemory adapter: word addresses and core-clock cycles on
 * the outside, byte addresses and memory clocks on the inside.
 */
class DramMemory : public systolic::MainMemory
{
  public:
    /**
     * @param cfg         parsed [memory] section (tech, channels,
     *                    ranks, core clock)
     * @param word_bytes  element size of the accelerator's words
     */
    DramMemory(const DramConfig& cfg, std::uint32_t word_bytes);

    Cycle issueRead(Addr addr, Count words, Cycle now) override;
    Cycle issueWrite(Addr addr, Count words, Cycle now) override;

    DramSystem& system() { return system_; }
    const DramSystem& system() const { return system_; }

    /** core cycles -> memory clocks. */
    Cycle toMem(Cycle core) const;
    /** memory clocks -> core cycles (rounded up). */
    Cycle toCore(Cycle mem) const;

  private:
    DramSystem system_;
    std::uint32_t wordBytes_;
    double coreToMem_;
};

} // namespace scalesim::dram

#endif // SCALESIM_DRAM_SYSTEM_HH
