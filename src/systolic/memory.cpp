#include "systolic/memory.hpp"

#include <algorithm>
#include <cmath>

#include "common/log.hpp"

namespace scalesim::systolic
{

BandwidthMemory::BandwidthMemory(double words_per_cycle,
                                 Cycle base_latency)
    : wordsPerCycle_(words_per_cycle), baseLatency_(base_latency)
{
    if (words_per_cycle <= 0.0)
        fatal("bandwidth must be positive (got %f)", words_per_cycle);
}

Cycle
BandwidthMemory::busOccupy(Count words, Cycle now)
{
    const double start = std::max(static_cast<double>(now), busFree_);
    lastWait_ = static_cast<Cycle>(start) - now;
    busFree_ = start + static_cast<double>(words) / wordsPerCycle_;
    return static_cast<Cycle>(std::ceil(busFree_));
}

Cycle
BandwidthMemory::issueRead(Addr /*addr*/, Count words, Cycle now)
{
    const Cycle done = busOccupy(words, now) + baseLatency_;
    ++stats_.readRequests;
    stats_.readWords += words;
    stats_.totalReadLatency += done - now;
    // Serialization behind earlier transfers is queueing; the rest of
    // the round trip (transfer time + base latency) is service.
    stats_.readQueueWait += lastWait_;
    stats_.readService += (done - now) - lastWait_;
    return done;
}

Cycle
BandwidthMemory::issueWrite(Addr /*addr*/, Count words, Cycle now)
{
    const Cycle done = busOccupy(words, now) + baseLatency_;
    ++stats_.writeRequests;
    stats_.writeWords += words;
    stats_.totalWriteLatency += done - now;
    return done;
}

RequestQueue::RequestQueue(std::uint32_t capacity)
    : capacity_(capacity)
{
    if (capacity_ == 0)
        fatal("request queue capacity must be non-zero");
}

void
RequestQueue::drain(Cycle now)
{
    const std::size_t size = inflight_.size();
    while (head_ < size && inflight_[head_] <= now)
        ++head_;
    if (head_ > size / 2) {
        inflight_.erase(inflight_.begin(),
                        inflight_.begin()
                            + static_cast<std::ptrdiff_t>(head_));
        head_ = 0;
    }
}

Cycle
RequestQueue::slotAvailable(Cycle now)
{
    drain(now);
    if (occupancy() < capacity_)
        return now;
    return inflight_[head_];
}

void
RequestQueue::push(Cycle completion, Cycle stalled)
{
    if (inflight_.size() == head_ || inflight_.back() <= completion) {
        inflight_.push_back(completion);
    } else {
        const auto live = inflight_.begin()
            + static_cast<std::ptrdiff_t>(head_);
        inflight_.insert(std::upper_bound(live, inflight_.end(),
                                          completion),
                         completion);
    }
    fullStalls_ += stalled;
}

} // namespace scalesim::systolic
