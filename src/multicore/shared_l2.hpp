/**
 * @file
 * Shared L2 scratchpad (paper §III-B): a line-granular LRU cache that
 * sits between the per-core L1 scratchpads and main memory. Cores in
 * the same row/column of the partition grid request identical input/
 * weight partitions; the L2 serves the duplicates from on-chip storage
 * instead of refetching them from DRAM.
 *
 * Implemented as a MainMemory decorator so any core-side scratchpad
 * can stack on top of any backing memory (bandwidth model or the
 * detailed DRAM system).
 */

#ifndef SCALESIM_MULTICORE_SHARED_L2_HH
#define SCALESIM_MULTICORE_SHARED_L2_HH

#include <cstdint>
#include <vector>

#include "systolic/memory.hpp"

namespace scalesim::multicore
{

/** Shared-L2 configuration. */
struct SharedL2Config
{
    /** Total L2 capacity in words. */
    std::uint64_t capacityWords = 4 * 1024 * 1024;
    /** Allocation/lookup granularity in words. */
    std::uint32_t lineWords = 256;
    /** Hit latency in core cycles. */
    Cycle hitLatency = 8;
    /** L2 port bandwidth shared by all cores, words per cycle. */
    double wordsPerCycle = 256.0;
};

/**
 * Hit/miss statistics of the shared L2. `hitWords`/`missWords` count
 * the words of each *request* served from a resident/missing line
 * (request-overlap granularity), so hitWords + missWords equals the
 * words the cores pulled through the L2 — see
 * MultiCoreTraceResult::l1FillWords. Line-granular refill traffic to
 * the backing memory is visible in that memory's own stats instead.
 */
struct SharedL2Stats
{
    Count lookups = 0;
    Count hits = 0;
    std::uint64_t hitWords = 0;
    std::uint64_t missWords = 0;
    std::uint64_t writeWords = 0;

    double
    hitRate() const
    {
        return lookups ? static_cast<double>(hits) / lookups : 0.0;
    }
};

/** The shared L2 cache as a MainMemory decorator. */
class SharedL2 : public systolic::MainMemory
{
  public:
    SharedL2(const SharedL2Config& cfg, systolic::MainMemory& backing);

    Cycle issueRead(Addr addr, Count words, Cycle now) override;
    Cycle issueWrite(Addr addr, Count words, Cycle now) override;

    Cycle lastIssueWait() const override { return lastWait_; }

    const SharedL2Stats& l2Stats() const { return l2Stats_; }
    systolic::MainMemory& backing() { return backing_; }

    /** Drop all cached lines (new workload). */
    void invalidate();

    /** Rewind the port cursor (see BandwidthMemory::resetTimeline). */
    void resetTimeline() { busFree_ = 0.0; }

  private:
    /** Slot index meaning "no slot" (list end, empty index bucket). */
    static constexpr std::uint32_t kNil = ~std::uint32_t{0};

    /** One resident line and its neighbours in the LRU list. */
    struct Slot
    {
        std::uint64_t line;
        std::uint32_t prev; ///< towards the MRU end
        std::uint32_t next; ///< towards the LRU end
    };

    /** True if the line is resident; inserts it (LRU) otherwise. */
    bool lookup(std::uint64_t line);
    /** Occupy the shared L2 port; returns transfer completion. */
    Cycle busOccupy(Count words, Cycle now);
    /** One past the last line [addr, addr + words) covers. */
    std::uint64_t lineEnd(Addr addr, Count words) const;

    /** Home bucket of `line` in index_. */
    std::size_t home(std::uint64_t line) const;
    /** Bucket holding `line`, or the empty bucket ending its probe. */
    std::size_t probe(std::uint64_t line) const;
    /** Empty `bucket`, shifting later probe-chain entries back. */
    void eraseBucket(std::size_t bucket);
    /** Double index_ (or create it) and re-insert every slot. */
    void growIndex();
    void unlink(std::uint32_t slot);
    void pushFront(std::uint32_t slot);

    SharedL2Config cfg_;
    systolic::MainMemory& backing_;
    SharedL2Stats l2Stats_;
    std::uint64_t capacityLines_;
    // Intrusive LRU over flat slots: mru_ is the most recently used,
    // lru_ the replacement victim. Slots are appended as lines become
    // resident, so nothing is allocated up front for a large capacity.
    std::vector<Slot> slots_;
    std::uint32_t mru_ = kNil;
    std::uint32_t lru_ = kNil;
    // Open-addressed line -> slot index (linear probing, kNil empty,
    // at most half full). Keyed access only: replacement walks the LRU
    // list, so hash order never influences hit/miss sequences or the
    // cycle counts derived from them (scalesim_lint
    // unordered-iteration-to-output).
    std::vector<std::uint32_t> index_;
    std::size_t indexMask_ = 0;
    int indexShift_ = 64;
    double busFree_ = 0.0;
    Cycle lastWait_ = 0;
};

} // namespace scalesim::multicore

#endif // SCALESIM_MULTICORE_SHARED_L2_HH
