/**
 * @file
 * Minimal parallel-execution engine for embarrassingly-parallel sweep
 * loops (DSE candidates, partition searches, bench config points).
 * C++20 std::jthread only — no external dependencies.
 *
 * Determinism contract: parallelFor hands each worker indices from a
 * shared atomic counter, so the *order* of execution is nondeterministic
 * but the mapping index -> work item is fixed. Callers store results by
 * index into a pre-sized vector, making parallel output bit-identical to
 * the sequential run (enforced by tests/parallel_test.cpp). Workers must
 * not share mutable state; each owns its own Simulator/DramMemory.
 *
 * Locking discipline (statically enforced under clang's thread-safety
 * analysis, see check/thread_safety.hpp): parallelFor's first-error
 * slot is the only state its workers share, guarded by its one mutex.
 */

#ifndef SCALESIM_COMMON_PARALLEL_HH
#define SCALESIM_COMMON_PARALLEL_HH

#include <cstdint>
#include <functional>

namespace scalesim
{

/**
 * Resolve a jobs request to a concrete worker count.
 *  - 0 means "auto": the SCALESIM_JOBS environment variable if set,
 *    otherwise std::thread::hardware_concurrency().
 *  - Any other value is used as-is (clamped to >= 1).
 */
unsigned resolveJobs(unsigned requested);

/**
 * Run body(i) for every i in [0, n) on up to `jobs` threads.
 * jobs <= 1 (after resolveJobs for jobs == 1; pass 0 for auto) runs
 * inline on the calling thread, byte-identical to a plain loop. The
 * first exception thrown by any body is rethrown on the caller after
 * all workers stop.
 */
void parallelFor(std::uint64_t n, unsigned jobs,
                 const std::function<void(std::uint64_t)>& body);

/**
 * True on a thread that parallelFor started, which it does only for two
 * or more workers. Such a loop already keeps up to one thread per core
 * busy, so work inside it should not start helper threads of its own.
 */
bool onParallelWorker();

} // namespace scalesim

#endif // SCALESIM_COMMON_PARALLEL_HH
