#include "systolic/fold_cache.hpp"

#include <new>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/mman.h>
#endif

namespace scalesim::systolic
{

namespace
{

/**
 * Whole-arena shift: one add-constant pass instead of per-address
 * arithmetic inside the cycle loop. A zero delta aliases the arena
 * directly. Negative deltas arrive as two's-complement Addr and the
 * unsigned wraparound addition realizes the signed shift.
 */
std::span<const Addr>
shifted(const FoldCacheEntry::Stream& stream, std::int64_t delta,
        std::vector<Addr>& buf)
{
    if (delta == 0)
        return stream.addrs;
    const Addr d = static_cast<Addr>(delta);
    buf.resize(stream.addrs.size());
    for (std::size_t i = 0; i < buf.size(); ++i)
        buf[i] = stream.addrs[i] + d;
    return buf;
}

std::span<const Addr>
cycleSpan(const FoldCacheEntry::Stream& stream,
          std::span<const Addr> addrs, std::size_t c)
{
    const std::uint64_t lo = stream.begin[c];
    const std::uint64_t hi = stream.begin[c + 1];
    return {addrs.data() + lo, hi - lo};
}

/** Empty stream storage for `addrs` addresses over `cycles` cycles. */
FoldCacheEntry::Stream
stream(std::uint64_t addrs, Cycle cycles,
       std::pmr::memory_resource* captures)
{
    FoldCacheEntry::Stream s{std::pmr::vector<Addr>(captures),
                             std::pmr::vector<std::uint64_t>(captures)};
    s.addrs.reserve(addrs);
    s.begin.reserve(cycles + 1);
    s.begin.push_back(0);
    return s;
}

} // namespace

FoldCacheEntry::FoldCacheEntry(const CaptureShape& shape,
                               std::pmr::memory_resource* captures)
    : ifmap(stream(shape.ifmap, shape.cycles, captures)),
      filter(stream(shape.filter, shape.cycles, captures)),
      writes(stream(shape.writes, shape.cycles, captures))
{}

void
FoldCacheEntry::clear()
{
    for (Stream* s : {&ifmap, &filter, &writes}) {
        s->addrs.clear();
        s->begin.resize(1);
    }
}

void
FoldCacheEntry::replay(DemandVisitor& visitor, Cycle fold_start,
                       const ReplayDeltas& deltas, bool accumulate,
                       FoldReplayScratch& scratch) const
{
    const std::span<const Addr> ifa = shifted(ifmap, deltas.ifmap,
                                              scratch.ifmap);
    const std::span<const Addr> fla = shifted(filter, deltas.filter,
                                              scratch.filter);
    const std::span<const Addr> wra = shifted(writes, deltas.ofmap,
                                              scratch.writes);
    const std::size_t cycles = writes.begin.size() - 1;
    for (std::size_t c = 0; c < cycles; ++c) {
        const std::span<const Addr> wr = cycleSpan(writes, wra, c);
        visitor.cycle(fold_start + c, cycleSpan(ifmap, ifa, c),
                      cycleSpan(filter, fla, c),
                      accumulate ? wr : std::span<const Addr>{}, wr);
    }
}

void
FoldCaptureVisitor::cycle(Cycle /*clk*/,
                          std::span<const Addr> ifmap_reads,
                          std::span<const Addr> filter_reads,
                          std::span<const Addr> /*ofmap_reads*/,
                          std::span<const Addr> ofmap_writes)
{
    auto append = [](FoldCacheEntry::Stream& stream,
                     std::span<const Addr> addrs) {
        stream.addrs.insert(stream.addrs.end(), addrs.begin(),
                            addrs.end());
        stream.begin.push_back(stream.addrs.size());
    };
    append(entry_.ifmap, ifmap_reads);
    append(entry_.filter, filter_reads);
    append(entry_.writes, ofmap_writes);
}

CaptureArena::~CaptureArena()
{
    release();
}

void
CaptureArena::reserve(std::size_t bytes)
{
    if (bytes <= size_)
        return;
    release();
#if defined(__unix__) || defined(__APPLE__)
    void* p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED)
        throw std::bad_alloc();
    data_ = static_cast<std::byte*>(p);
#else
    data_ = new std::byte[bytes];
#endif
    size_ = bytes;
}

void
CaptureArena::release()
{
    if (!data_)
        return;
#if defined(__unix__) || defined(__APPLE__)
    munmap(data_, size_);
#else
    delete[] data_;
#endif
    data_ = nullptr;
    size_ = 0;
}

} // namespace scalesim::systolic
