#include "multicore/tensor_core.hpp"

#include "common/log.hpp"

namespace scalesim::multicore
{

Cycle
simdCycles(const SimdConfig& simd, VectorOp op, std::uint64_t elements)
{
    if (simd.lanes == 0)
        fatal("SIMD unit needs at least one lane");
    if (op == VectorTail::None || elements == 0)
        return 0;
    const std::uint64_t vectors = ceilDiv(elements, simd.lanes);
    std::uint64_t passes = 1;
    if (op == VectorTail::Softmax)
        passes = simd.softmaxPasses;
    return vectors * passes * simd.latencyPerOp;
}

} // namespace scalesim::multicore
