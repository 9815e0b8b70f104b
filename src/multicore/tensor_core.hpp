/**
 * @file
 * Heterogeneous tensor cores (paper §III-C): each TensorCore couples a
 * matrix-multiply unit (systolic array) with a SIMD/vector unit of
 * configurable length and per-operation latency, following the
 * TPU/MTIA naming. The vector unit handles the element-wise tail of a
 * layer (activation, softmax, quantization), serialized after the
 * matrix part.
 */

#ifndef SCALESIM_MULTICORE_TENSOR_CORE_HH
#define SCALESIM_MULTICORE_TENSOR_CORE_HH

#include <string>

#include "common/types.hpp"

namespace scalesim::multicore
{

/** Element-wise operation classes handled by the vector unit. */
using VectorOp = VectorTail;

/** SIMD/vector unit configuration (length and latency are knobs). */
struct SimdConfig
{
    std::uint32_t lanes = 16;
    /** Cycles per vector instruction (customizable, §III-C). */
    Cycle latencyPerOp = 1;
    /** Extra per-element passes for Softmax-class ops. */
    std::uint32_t softmaxPasses = 3;
};

/** One tensor core: MXU dimensions plus its vector unit. */
struct TensorCoreConfig
{
    std::string name = "core";
    std::uint32_t arrayRows = 32;
    std::uint32_t arrayCols = 32;
    SimdConfig simd;

    std::uint64_t
    pes() const
    {
        return static_cast<std::uint64_t>(arrayRows) * arrayCols;
    }
};

/** Cycles the vector unit needs for `elements` under `op`. */
Cycle simdCycles(const SimdConfig& simd, VectorOp op,
                 std::uint64_t elements);

} // namespace scalesim::multicore

#endif // SCALESIM_MULTICORE_TENSOR_CORE_HH
