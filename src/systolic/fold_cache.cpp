#include "systolic/fold_cache.hpp"

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
const std::vector<Addr>&
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
          const std::vector<Addr>& addrs, std::size_t c)
{
    const std::uint64_t lo = stream.begin[c];
    const std::uint64_t hi = stream.begin[c + 1];
    return {addrs.data() + lo, hi - lo};
}

} // namespace

void
FoldCacheEntry::replay(DemandVisitor& visitor, Cycle fold_start,
                       const ReplayDeltas& deltas, bool accumulate,
                       FoldReplayScratch& scratch) const
{
    const std::vector<Addr>& ifa = shifted(ifmap, deltas.ifmap,
                                           scratch.ifmap);
    const std::vector<Addr>& fla = shifted(filter, deltas.filter,
                                           scratch.filter);
    const std::vector<Addr>& wra = shifted(writes, deltas.ofmap,
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

} // namespace scalesim::systolic
