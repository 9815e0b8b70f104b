/**
 * @file
 * Fundamental types shared across every SCALE-Sim v3 module: integer
 * aliases, the dataflow enumeration, GEMM dimensions, the Table-II
 * dataflow-to-(Sr, Sc, T) mapping, and layer specifications.
 */

#ifndef SCALESIM_COMMON_TYPES_HH
#define SCALESIM_COMMON_TYPES_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>

namespace scalesim
{

/** Simulation cycle count (compute or memory clock, per context). */
using Cycle = std::uint64_t;

/** Word-granular address within a linear operand address space. */
using Addr = std::uint64_t;

/** Generic event/access counter. */
using Count = std::uint64_t;

/** Sentinel for "no request this cycle" entries in demand streams. */
constexpr Addr kNoAddr = ~static_cast<Addr>(0);

/** Integer ceiling division; b must be non-zero. */
constexpr std::uint64_t
ceilDiv(std::uint64_t a, std::uint64_t b)
{
    return (a + b - 1) / b;
}

/**
 * Classic systolic dataflows (Eyeriss taxonomy) supported by the
 * simulator, matching SCALE-Sim's `os` / `ws` / `is` settings.
 */
enum class Dataflow
{
    OutputStationary,
    WeightStationary,
    InputStationary,
};

/** Short lowercase tag for a dataflow ("os", "ws", "is"). */
std::string toString(Dataflow df);

/**
 * Parse a dataflow tag; accepts "os"/"ws"/"is" case-insensitively.
 * Throws std::invalid_argument on anything else.
 */
Dataflow dataflowFromString(std::string_view text);

/**
 * GEMM problem dimensions for an (M x K) * (K x N) product. Convolutions
 * are lowered to GEMM via im2col before simulation, exactly as SCALE-Sim
 * does internally.
 */
struct GemmDims
{
    std::uint64_t m = 0;
    std::uint64_t n = 0;
    std::uint64_t k = 0;

    /** Total multiply-accumulate operations of the dense problem. */
    std::uint64_t macs() const { return m * n * k; }

    bool operator==(const GemmDims&) const = default;
};

/**
 * Spatial/temporal mapping dimensions per the paper's Table II. `sr` and
 * `sc` fold over the array's rows and columns; `t` streams in time.
 *
 *   dataflow | Sr | Sc | T
 *   ---------+----+----+---
 *   IS       | K  | N  | M
 *   WS       | K  | M  | N
 *   OS       | M  | N  | K
 */
struct MappedDims
{
    std::uint64_t sr = 0;
    std::uint64_t sc = 0;
    std::uint64_t t = 0;

    bool operator==(const MappedDims&) const = default;
};

/** Apply the Table-II mapping to a GEMM under a given dataflow. */
MappedDims mapGemm(const GemmDims& gemm, Dataflow df);

/** Kind of workload layer in a topology file. */
enum class LayerType
{
    Conv,
    Gemm,
};

/**
 * Element-wise tail executed on the tensor core's vector/SIMD unit
 * after a layer's matrix part (paper §III-C: activations, softmax,
 * (de)quantization run on the SIMD unit, not the array).
 */
enum class VectorTail
{
    None,
    Activation, ///< ReLU/GELU-style, one pass over the outputs
    Softmax,    ///< three passes (max, exp-sum, normalize)
    Quantize,   ///< LUT-based (de)quantization, one pass
};

std::string toString(VectorTail tail);
VectorTail vectorTailFromString(std::string_view text);

/**
 * One layer of a workload topology. Convolution layers carry the
 * SCALE-Sim CSV fields (ifmap/filter geometry, channels, filter count,
 * stride); GEMM layers carry explicit M/N/K. `repetitions` lets a single
 * spec stand for several identical layers (e.g. the per-head attention
 * GEMMs of a transformer block).
 */
struct LayerSpec
{
    std::string name;
    LayerType type = LayerType::Conv;

    // Convolution parameters (valid when type == Conv).
    std::uint64_t ifmapH = 0;
    std::uint64_t ifmapW = 0;
    std::uint64_t filterH = 0;
    std::uint64_t filterW = 0;
    std::uint64_t channels = 0;
    std::uint64_t numFilters = 0;
    std::uint64_t stride = 1;

    // Explicit dimensions (valid when type == Gemm).
    GemmDims gemmDims;

    /** How many identical instances of this layer the network runs. */
    std::uint32_t repetitions = 1;

    /**
     * Inference batch size: the GEMM's M dimension scales by this
     * (batching amortizes stationary-operand loads, classically
     * helping weight-stationary dataflows).
     */
    std::uint64_t batch = 1;

    /** Set the batch size (chainable). */
    LayerSpec&
    withBatch(std::uint64_t b)
    {
        batch = b;
        return *this;
    }

    /**
     * Per-layer N:M sparsity from the topology `SparsitySupport`
     * column. sparseN == 0 (or sparseN == sparseM) means dense.
     */
    std::uint32_t sparseN = 0;
    std::uint32_t sparseM = 0;

    /** Element-wise tail on the vector unit (§III-C). */
    VectorTail tail = VectorTail::None;

    /** Set the vector tail (chainable). */
    LayerSpec&
    withTail(VectorTail t)
    {
        tail = t;
        return *this;
    }

    /** Output feature-map height after the convolution. */
    std::uint64_t ofmapH() const;
    /** Output feature-map width after the convolution. */
    std::uint64_t ofmapW() const;

    /** True when the layer carries a real N:M sparsity annotation. */
    bool isSparse() const { return sparseM != 0 && sparseN < sparseM; }

    /**
     * Lower the layer to GEMM dimensions. Convolutions use im2col:
     * M = ofmapH*ofmapW, K = filterH*filterW*channels, N = numFilters.
     */
    GemmDims toGemm() const;

    /**
     * Every field that decides what one instance of the layer computes,
     * as a tie: all but the display `name` and the `repetitions` that
     * scale results outside it. Simulator::run's layer-shape memo
     * compares layers with it and the serve cache key hashes it, so a
     * new shape field reaches both.
     */
    auto
    shapeFields() const
    {
        return std::tie(type, ifmapH, ifmapW, filterH, filterW, channels,
                        numFilters, stride, gemmDims.m, gemmDims.n,
                        gemmDims.k, batch, sparseN, sparseM, tail);
    }

    /** Dense MAC count of one instance of the layer. */
    std::uint64_t macs() const { return toGemm().macs(); }

    /** Make a convolution layer spec. */
    static LayerSpec conv(std::string name, std::uint64_t ifmap_h,
                          std::uint64_t ifmap_w, std::uint64_t filter_h,
                          std::uint64_t filter_w, std::uint64_t channels,
                          std::uint64_t num_filters, std::uint64_t stride,
                          std::uint32_t repetitions = 1);

    /** Make a GEMM layer spec. */
    static LayerSpec gemm(std::string name, std::uint64_t m,
                          std::uint64_t n, std::uint64_t k,
                          std::uint32_t repetitions = 1);
};

} // namespace scalesim

#endif // SCALESIM_COMMON_TYPES_HH
