/**
 * @file
 * Fold-replay demand cache. Every full (non-ragged) fold of a layer
 * emits the canonical fold's per-cycle address stream shifted by a
 * per-fold constant offset per operand, because the operand address
 * functions are affine in the fold bases — exactly (for plain GEMM
 * addressing) or piecewise (for conv im2col addressing, where two
 * folds are shift-equivalent when their bases agree modulo one output
 * row / one filter row, and for sparse-WS gathers, where only column
 * folds of the same row fold are equivalent).
 *
 * The cache captures one canonical fold per equivalence class into a
 * compact arena (flat Addr buffer plus per-cycle span offsets, no
 * per-cycle push_back/clear churn) and replays it for every fold of
 * the class by adding the constant deltas — the capture fold itself
 * at zero shift — so every visitor sees a bit-identical cycle/address
 * sequence at a fraction of the generation cost. A generator's cache
 * takes each capture's storage, sized exactly, from a memory resource
 * its caller picks: the heap by default, or a region of a Simulator's
 * CaptureArena (DESIGN.md "Run pipeline").
 */

#ifndef SCALESIM_SYSTOLIC_FOLD_CACHE_HH
#define SCALESIM_SYSTOLIC_FOLD_CACHE_HH

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory_resource>
#include <vector>

#include "common/hash.hpp"
#include "systolic/demand.hpp"

namespace scalesim::systolic
{

/** Per-stream constant address shifts of a replayed fold. */
struct ReplayDeltas
{
    std::int64_t ifmap = 0;
    std::int64_t filter = 0;
    std::int64_t ofmap = 0;
};

/** Reusable shift buffers so replays allocate nothing in steady state. */
struct FoldReplayScratch
{
    std::vector<Addr> ifmap;
    std::vector<Addr> filter;
    std::vector<Addr> writes;
};

/** What one captured fold holds: addresses per stream, fold cycles. */
struct CaptureShape
{
    std::uint64_t ifmap = 0;
    std::uint64_t filter = 0;
    std::uint64_t writes = 0;
    Cycle cycles = 0;

    /** Bytes of one capture: the three address arenas and begin lists. */
    std::size_t
    bytes() const
    {
        return (ifmap + filter + writes) * sizeof(Addr)
            + 3 * (cycles + 1) * sizeof(std::uint64_t);
    }
};

/**
 * One captured canonical fold: three flat address arenas with
 * per-cycle begin offsets (`begin[c]..begin[c+1]` is cycle c's span).
 * Ofmap accumulate reads are not stored — they are always the write
 * addresses of the same cycle, so replay synthesizes them. A
 * default-constructed entry grows on the heap; FoldReplayCache's
 * entries hold exactly one CaptureShape from its memory resource.
 */
struct FoldCacheEntry
{
    struct Stream
    {
        std::pmr::vector<Addr> addrs;
        std::pmr::vector<std::uint64_t> begin{0};
    };

    FoldCacheEntry() = default;
    /** Storage for exactly `shape`, taken from `captures`. */
    FoldCacheEntry(const CaptureShape& shape,
                   std::pmr::memory_resource* captures);

    /** Empty the streams for the next capture, keeping the storage. */
    void clear();

    /** Fold indices this entry was captured at (delta reference). */
    std::uint64_t rf = 0;
    std::uint64_t cf = 0;
    Stream ifmap;
    Stream filter;
    Stream writes;

    /** Addresses a replay of this entry emits. */
    Count
    addrCount(bool accumulate) const
    {
        return ifmap.addrs.size() + filter.addrs.size()
            + writes.addrs.size()
            + (accumulate ? writes.addrs.size() : 0);
    }

    /**
     * Emit the captured fold through `visitor`, shifted by `deltas`.
     * Calls visitor.cycle() once per fold cycle; when `accumulate`,
     * the shifted write addresses double as the ofmap read span.
     */
    void replay(DemandVisitor& visitor, Cycle fold_start,
                const ReplayDeltas& deltas, bool accumulate,
                FoldReplayScratch& scratch) const;
};

/**
 * Key of a per-layer memo that a replaying visitor keeps per captured
 * stream: the entry's capture fold, a sub-period shift `rho` (each
 * visitor documents what it reduces a replay shift to) and the stream
 * (0 ifmap, 1 filter, 2 ofmap writes).
 */
struct ReplayMemoKey
{
    std::uint64_t rf = 0;
    std::uint64_t cf = 0;
    std::uint64_t rho = 0;
    std::uint32_t stream = 0;
    bool operator==(const ReplayMemoKey&) const = default;
};

/** FNV-1a over the key's fields, for unordered_map. */
struct ReplayMemoKeyHash
{
    std::size_t
    operator()(const ReplayMemoKey& k) const
    {
        Fnv1a h;
        h.mix(k.rf);
        h.mix(k.cf);
        h.mix(k.rho);
        h.mix(k.stream);
        return static_cast<std::size_t>(h.digest());
    }
};

/**
 * DemandVisitor that appends every cycle's spans to a FoldCacheEntry's
 * arenas. The live generator runs the first fold of each equivalence
 * class into it; the generator then hands the captured fold to the
 * real visitor as a zero-shift replay, like any other cached fold.
 */
class FoldCaptureVisitor : public DemandVisitor
{
  public:
    explicit FoldCaptureVisitor(FoldCacheEntry& entry) : entry_(entry) {}

    void cycle(Cycle clk, std::span<const Addr> ifmap_reads,
               std::span<const Addr> filter_reads,
               std::span<const Addr> ofmap_reads,
               std::span<const Addr> ofmap_writes) override;

  private:
    FoldCacheEntry& entry_;
};

/**
 * Bounded map from fold-equivalence-class key to captured entry.
 * Classes are visited largely in key order, so when the bound is hit
 * the smallest (oldest) key is evicted, and its storage holds the new
 * capture. Every capture of a layer has one shape (its canonical
 * fold's), so the cache takes min(classes, kMaxEntries) shapes of
 * storage from its resource and no more.
 */
class FoldReplayCache
{
  public:
    /** Classes kept at once. */
    static constexpr std::size_t kMaxEntries = 32;

    FoldReplayCache(const CaptureShape& shape,
                    std::pmr::memory_resource* captures)
        : shape_(shape), captures_(captures)
    {}

    FoldCacheEntry*
    find(std::uint64_t key)
    {
        auto it = entries_.find(key);
        return it == entries_.end() ? nullptr : &it->second;
    }

    FoldCacheEntry&
    insert(std::uint64_t key, std::uint64_t rf, std::uint64_t cf)
    {
        std::map<std::uint64_t, FoldCacheEntry>::iterator it;
        if (entries_.size() >= kMaxEntries) {
            auto node = entries_.extract(entries_.begin());
            node.key() = key;
            node.mapped().clear();
            it = entries_.insert(std::move(node)).position;
        } else {
            it = entries_.try_emplace(key, shape_, captures_).first;
        }
        it->second.rf = rf;
        it->second.cf = cf;
        return it->second;
    }

    std::size_t size() const { return entries_.size(); }

  private:
    CaptureShape shape_;
    std::pmr::memory_resource* captures_;
    std::map<std::uint64_t, FoldCacheEntry> entries_;
};

/**
 * Page-mapped bytes that hold a Simulator's fold captures
 * (DESIGN.md "Run pipeline"). Mapped with mmap, so freed captures
 * never sit in a thread's malloc arena; on hosts without POSIX it
 * falls back to the heap. It grows, never shrinks, and starts empty.
 */
class CaptureArena
{
  public:
    CaptureArena() = default;
    ~CaptureArena();
    CaptureArena(const CaptureArena&) = delete;
    CaptureArena& operator=(const CaptureArena&) = delete;

    /**
     * Grow to at least `bytes`, dropping the old contents. Only while
     * no pass holds a region of it. Throws std::bad_alloc on failure.
     */
    void reserve(std::size_t bytes);

    std::byte* data() const { return data_; }
    std::size_t size() const { return size_; }

  private:
    void release();

    std::byte* data_ = nullptr;
    std::size_t size_ = 0;
};

} // namespace scalesim::systolic

#endif // SCALESIM_SYSTOLIC_FOLD_CACHE_HH
