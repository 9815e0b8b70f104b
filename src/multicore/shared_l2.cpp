#include "multicore/shared_l2.hpp"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/log.hpp"

namespace scalesim::multicore
{

SharedL2::SharedL2(const SharedL2Config& cfg,
                   systolic::MainMemory& backing)
    : cfg_(cfg), backing_(backing),
      capacityLines_(cfg.capacityWords
                     / std::max<std::uint32_t>(1, cfg.lineWords))
{
    if (cfg_.lineWords == 0)
        fatal("L2 line size must be non-zero");
    if (capacityLines_ == 0)
        fatal("L2 capacity below one line");
    if (cfg_.wordsPerCycle <= 0.0)
        fatal("L2 bandwidth must be positive");
}

void
SharedL2::invalidate()
{
    slots_.clear();
    std::fill(index_.begin(), index_.end(), kNil);
    mru_ = lru_ = kNil;
}

std::size_t
SharedL2::home(std::uint64_t line) const
{
    // Fibonacci hashing: the top bits of the product spread the
    // consecutive line numbers of a burst across the table.
    return static_cast<std::size_t>((line * 0x9e3779b97f4a7c15ull)
                                    >> indexShift_);
}

std::size_t
SharedL2::probe(std::uint64_t line) const
{
    std::size_t bucket = home(line);
    while (index_[bucket] != kNil && slots_[index_[bucket]].line != line)
        bucket = (bucket + 1) & indexMask_;
    return bucket;
}

void
SharedL2::eraseBucket(std::size_t bucket)
{
    // Backward-shift deletion: walk the probe chain after the hole and
    // move back every entry whose home lies at or before the hole, so
    // no lookup ever stops early at a gap.
    std::size_t hole = bucket;
    for (std::size_t at = (bucket + 1) & indexMask_; index_[at] != kNil;
         at = (at + 1) & indexMask_) {
        const std::size_t from_home =
            (at - home(slots_[index_[at]].line)) & indexMask_;
        if (from_home >= ((at - hole) & indexMask_)) {
            index_[hole] = index_[at];
            hole = at;
        }
    }
    index_[hole] = kNil;
}

void
SharedL2::growIndex()
{
    std::size_t size = std::max<std::size_t>(16, index_.size() * 2);
    while (size < 2 * slots_.size())
        size *= 2;
    index_.assign(size, kNil);
    indexMask_ = size - 1;
    indexShift_ = 64 - std::countr_zero(size);
    for (std::uint32_t slot = 0; slot < slots_.size(); ++slot)
        index_[probe(slots_[slot].line)] = slot;
}

void
SharedL2::unlink(std::uint32_t slot)
{
    const Slot& s = slots_[slot];
    if (s.prev != kNil)
        slots_[s.prev].next = s.next;
    else
        mru_ = s.next;
    if (s.next != kNil)
        slots_[s.next].prev = s.prev;
    else
        lru_ = s.prev;
}

void
SharedL2::pushFront(std::uint32_t slot)
{
    slots_[slot].prev = kNil;
    slots_[slot].next = mru_;
    if (mru_ != kNil)
        slots_[mru_].prev = slot;
    else
        lru_ = slot;
    mru_ = slot;
}

bool
SharedL2::lookup(std::uint64_t line)
{
    std::size_t bucket = 0;
    if (!index_.empty()) {
        bucket = probe(line);
        const std::uint32_t slot = index_[bucket];
        if (slot != kNil) {
            if (slot != mru_) {
                unlink(slot);
                pushFront(slot);
            }
            return true;
        }
    }
    std::uint32_t slot;
    if (slots_.size() < capacityLines_) {
        slot = static_cast<std::uint32_t>(slots_.size());
        slots_.push_back({line, kNil, kNil});
        if (2 * slots_.size() > index_.size())
            growIndex(); // re-inserts every slot, this one too
        else
            index_[bucket] = slot;
    } else {
        // Full: the least recently used line gives up its slot.
        slot = lru_;
        unlink(slot);
        eraseBucket(probe(slots_[slot].line));
        slots_[slot].line = line;
        index_[probe(line)] = slot;
    }
    pushFront(slot);
    return false;
}

Cycle
SharedL2::busOccupy(Count words, Cycle now)
{
    const double start = std::max(static_cast<double>(now), busFree_);
    lastWait_ = static_cast<Cycle>(start) - now;
    busFree_ = start + static_cast<double>(words) / cfg_.wordsPerCycle;
    return static_cast<Cycle>(std::ceil(busFree_));
}

std::uint64_t
SharedL2::lineEnd(Addr addr, Count words) const
{
    // One past the last line the request covers; a zero-word request
    // covers none, so it only occupies the port, like BandwidthMemory.
    return words == 0 ? addr / cfg_.lineWords
                      : (addr + words - 1) / cfg_.lineWords + 1;
}

Cycle
SharedL2::issueRead(Addr addr, Count words, Cycle now)
{
    // Walk the lines the request covers; misses go to the backing
    // memory at line granularity (the L2 refill unit).
    const std::uint64_t first_line = addr / cfg_.lineWords;
    const std::uint64_t end_line = lineEnd(addr, words);
    Cycle data_ready = now + cfg_.hitLatency;
    for (std::uint64_t line = first_line; line < end_line; ++line) {
        ++l2Stats_.lookups;
        // Words of *this request* the line covers (so that hitWords +
        // missWords across requests sums to the words served to cores;
        // refill traffic is line-granular and counted by the backing).
        const std::uint64_t line_lo = line * cfg_.lineWords;
        const std::uint64_t overlap =
            std::min<std::uint64_t>(addr + words,
                                    line_lo + cfg_.lineWords)
            - std::max<std::uint64_t>(addr, line_lo);
        if (lookup(line)) {
            ++l2Stats_.hits;
            l2Stats_.hitWords += overlap;
        } else {
            l2Stats_.missWords += overlap;
            const Cycle fill = backing_.issueRead(
                line * cfg_.lineWords, cfg_.lineWords, now);
            data_ready = std::max(data_ready, fill + cfg_.hitLatency);
        }
    }
    const Cycle done = std::max(busOccupy(words, now),
                                data_ready);
    ++stats_.readRequests;
    stats_.readWords += words;
    stats_.totalReadLatency += done - now;
    return done;
}

Cycle
SharedL2::issueWrite(Addr addr, Count words, Cycle now)
{
    // Write-through at line granularity: the line is allocated in L2
    // (later partial-sum reloads hit) and the data drains to backing
    // memory in the background.
    const std::uint64_t first_line = addr / cfg_.lineWords;
    const std::uint64_t end_line = lineEnd(addr, words);
    for (std::uint64_t line = first_line; line < end_line; ++line)
        lookup(line);
    l2Stats_.writeWords += words;
    backing_.issueWrite(addr, words, now);
    const Cycle done = busOccupy(words, now);
    ++stats_.writeRequests;
    stats_.writeWords += words;
    stats_.totalWriteLatency += done - now;
    return done;
}

} // namespace scalesim::multicore
