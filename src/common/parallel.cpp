#include "common/parallel.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <vector>

#include "check/thread_safety.hpp"

namespace scalesim
{

namespace
{

thread_local bool tOnParallelWorker = false;

} // namespace

unsigned
resolveJobs(unsigned requested)
{
    if (requested != 0)
        return requested;
    // Read-only env lookup before any pool thread exists; nothing in
    // the simulator calls setenv, so this cannot race.
    // NOLINTNEXTLINE(concurrency-mt-unsafe)
    if (const char* env = std::getenv("SCALESIM_JOBS")) {
        const long parsed = std::strtol(env, nullptr, 10);
        if (parsed > 0)
            return static_cast<unsigned>(parsed);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

void
parallelFor(std::uint64_t n, unsigned jobs,
            const std::function<void(std::uint64_t)>& body)
{
    if (n == 0)
        return;
    const unsigned workers = std::min<std::uint64_t>(
        jobs == 1 ? 1 : resolveJobs(jobs), n);
    if (workers <= 1) {
        for (std::uint64_t i = 0; i < n; ++i)
            body(i);
        return;
    }

    std::atomic<std::uint64_t> next{0};
    std::atomic<bool> failed{false};
    /** First exception across workers, with an annotated lock. */
    struct ErrorSlot
    {
        CheckedMutex mutex;
        std::exception_ptr first SIM_GUARDED_BY(mutex);

        void
        store(std::exception_ptr error) SIM_EXCLUDES(mutex)
        {
            MutexLock lock(mutex);
            if (!first)
                first = error;
        }

        std::exception_ptr
        take() SIM_EXCLUDES(mutex)
        {
            MutexLock lock(mutex);
            return first;
        }
    } slot;
    auto drain = [&] {
        tOnParallelWorker = true;
        for (;;) {
            const std::uint64_t i =
                next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n || failed.load(std::memory_order_relaxed))
                return;
            try {
                body(i);
            } catch (...) {
                slot.store(std::current_exception());
                failed.store(true, std::memory_order_relaxed);
                return;
            }
        }
    };
    {
        std::vector<std::jthread> threads;
        threads.reserve(workers);
        for (unsigned w = 0; w < workers; ++w)
            threads.emplace_back(drain);
    }
    if (auto error = slot.take())
        std::rethrow_exception(error);
}

bool
onParallelWorker()
{
    return tOnParallelWorker;
}

} // namespace scalesim
