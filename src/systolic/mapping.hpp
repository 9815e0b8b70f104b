/**
 * @file
 * GEMM-to-array mapping: operand address spaces, dataflow-dependent
 * fold geometry, and the SCALE-Sim analytical runtime building blocks.
 *
 * A GEMM O[M,N] = A[M,K] * B[K,N] is mapped onto an R x C array under a
 * dataflow as (Sr, Sc, T): the Sr and Sc dimensions fold spatially over
 * rows and columns while T streams temporally. One fold takes
 * `2R + C + T - 2` cycles (fill + stream + drain), so a layer takes
 * `(2R + C + T - 2) * ceil(Sr/R) * ceil(Sc/C)` cycles — Eq. (1) of the
 * paper with a single partition.
 *
 * Note on Table II: the paper's IS and WS rows are swapped relative to
 * SCALE-Sim's conventional operand semantics (its §VII-E uses the
 * conventional ones). We implement the conventional mapping —
 * WS = (K, N, M) with the filter stationary, IS = (K, M, N) with the
 * ifmap stationary, OS = (M, N, K) with outputs stationary. The runtime
 * equations are symmetric under the relabeling, so every paper result
 * is unaffected.
 */

#ifndef SCALESIM_SYSTOLIC_MAPPING_HH
#define SCALESIM_SYSTOLIC_MAPPING_HH

#include <cstdint>

#include "common/config.hpp"
#include "common/types.hpp"

namespace scalesim::systolic
{

/**
 * Word addresses of the three operands in their linear regions:
 * filter row-major K x N, ofmap row-major M x N. The ifmap is either a
 * plain row-major M x K matrix (GEMM layers) or — for convolution
 * layers — the real (H, W, C) feature-map tensor addressed through the
 * im2col window equations, so overlapping windows genuinely reuse the
 * same addresses (as SCALE-Sim's operand matrices do).
 */
struct OperandMap
{
    GemmDims dims;
    Addr ifmapBase = 0;
    Addr filterBase = 10'000'000;
    Addr ofmapBase = 20'000'000;

    /** Convolution geometry; conv == false for plain GEMM layers. */
    bool conv = false;
    std::uint64_t ifmapH = 0;
    std::uint64_t ifmapW = 0;
    std::uint64_t channels = 0;
    std::uint64_t filterH = 0;
    std::uint64_t filterW = 0;
    std::uint64_t stride = 1;
    std::uint64_t ofmapW = 0;
    /** Images in the batch (each a separate (H, W, C) tensor). */
    std::uint64_t batch = 1;

    OperandMap() = default;
    OperandMap(const GemmDims& d, const MemoryConfig& mem)
        : dims(d), ifmapBase(mem.ifmapOffset),
          filterBase(mem.filterOffset), ofmapBase(mem.ofmapOffset)
    {}

    /** Build from a layer, enabling im2col addressing for convs. */
    static OperandMap forLayer(const LayerSpec& layer,
                               const MemoryConfig& mem);

    /**
     * im2col splits into a part per output pixel and a part per
     * reduction index: output pixel m = (img, oh, ow) reads the window
     * anchored at (oh*stride, ow*stride) of image img, and reduction
     * index k = (kh, kw, c) is the offset (kh, kw, c) inside every
     * window. A GEMM reads row m, column k of a row-major M x K matrix.
     */
    Addr
    ifmapAddr(std::uint64_t m, std::uint64_t k) const
    {
        return ifmapRowBase(m) + ifmapColOffset(k);
    }
    Addr
    ifmapRowBase(std::uint64_t m) const
    {
        if (!conv)
            return ifmapBase + m * dims.k;
        const std::uint64_t pixels = dims.m / batch;
        const std::uint64_t img = m / pixels;
        const std::uint64_t oh = (m % pixels) / ofmapW;
        const std::uint64_t ow = (m % pixels) % ofmapW;
        return ifmapBase + img * ifmapH * ifmapW * channels
            + (oh * stride * ifmapW + ow * stride) * channels;
    }
    std::uint64_t
    ifmapColOffset(std::uint64_t k) const
    {
        if (!conv)
            return k;
        const std::uint64_t kh = k / (filterW * channels);
        const std::uint64_t kw = (k % (filterW * channels)) / channels;
        const std::uint64_t c = k % channels;
        return (kh * ifmapW + kw) * channels + c;
    }
    Addr filterAddr(std::uint64_t k, std::uint64_t n) const
    {
        return filterBase + k * dims.n + n;
    }
    Addr ofmapAddr(std::uint64_t m, std::uint64_t n) const
    {
        return ofmapBase + m * dims.n + n;
    }

    /** Words per addressed ifmap row (for coordinate recovery). */
    std::uint64_t
    ifmapRowWidth() const
    {
        return conv ? ifmapW * channels : dims.k;
    }
    /** Rows of the addressed ifmap (batch*H for convs, M for GEMMs). */
    std::uint64_t
    ifmapRows() const
    {
        return conv ? batch * ifmapH : dims.m;
    }
    /** Unique ifmap footprint in words. */
    std::uint64_t
    ifmapWords() const
    {
        return conv ? batch * ifmapH * ifmapW * channels
                    : dims.m * dims.k;
    }

    /**
     * Unique ifmap rows (in the addressed tensor) touched by output
     * pixels [m_lo, m_hi] x reduction range [k_lo, k_hi]; returns the
     * inclusive [h_lo, h_hi] row range for convs or [m_lo, m_hi] for
     * GEMMs.
     */
    std::pair<std::uint64_t, std::uint64_t>
    ifmapRowRange(std::uint64_t m_lo, std::uint64_t m_hi,
                  std::uint64_t k_lo, std::uint64_t k_hi) const
    {
        if (!conv)
            return {m_lo, m_hi};
        const std::uint64_t pixels = dims.m / batch;
        const std::uint64_t kh_lo = k_lo / (filterW * channels);
        const std::uint64_t kh_hi = k_hi / (filterW * channels);
        const std::uint64_t img_lo = m_lo / pixels;
        const std::uint64_t img_hi = m_hi / pixels;
        const std::uint64_t h_lo = img_lo * ifmapH
            + ((m_lo % pixels) / ofmapW) * stride + kh_lo;
        std::uint64_t h_in_img = ((m_hi % pixels) / ofmapW) * stride
            + kh_hi;
        if (h_in_img >= ifmapH)
            h_in_img = ifmapH - 1;
        const std::uint64_t h_hi = img_hi * ifmapH + h_in_img;
        return {h_lo, h_hi};
    }
};

/** Conventional (Sr, Sc, T) mapping used by the demand engine. */
MappedDims mapGemmConventional(const GemmDims& gemm, Dataflow df);

/**
 * Fold geometry for a (GEMM, dataflow, array) triple. Fold (rf, cf)
 * covers rows [rf*R, rf*R + tileRows) of Sr and columns
 * [cf*C, cf*C + tileCols) of Sc.
 */
class FoldGrid
{
  public:
    FoldGrid(const GemmDims& gemm, Dataflow df, std::uint32_t rows,
             std::uint32_t cols);

    Dataflow dataflow() const { return df_; }
    const GemmDims& gemm() const { return gemm_; }
    const MappedDims& mapped() const { return mapped_; }
    std::uint32_t arrayRows() const { return rows_; }
    std::uint32_t arrayCols() const { return cols_; }

    std::uint64_t rowFolds() const { return rowFolds_; }
    std::uint64_t colFolds() const { return colFolds_; }
    std::uint64_t numFolds() const { return rowFolds_ * colFolds_; }

    /** Rows of Sr actually used by row-fold rf (edge folds shrink). */
    std::uint64_t tileRows(std::uint64_t rf) const;
    /** Columns of Sc actually used by column-fold cf. */
    std::uint64_t tileCols(std::uint64_t cf) const;

    /**
     * Cycles of one fold: 2R + C + T - 2 (uniform across folds, as in
     * SCALE-Sim). `t` defaults to the mapped temporal extent; sparse
     * runs pass a compressed value.
     */
    Cycle foldCycles() const { return foldCycles(mapped_.t); }
    Cycle foldCycles(std::uint64_t t) const
    {
        return 2ull * rows_ + cols_ + t - 2;
    }

    /** Total layer compute cycles (dense). */
    Cycle totalCycles() const { return foldCycles() * numFolds(); }

    /**
     * Fraction of PE-cycles doing useful MACs:
     * macs / (totalCycles * R * C).
     */
    double utilization() const;

    /**
     * Average fraction of the array covered by mapped tiles (spatial
     * mapping efficiency).
     */
    double mappingEfficiency() const;

    /**
     * Per-operand SRAM access counts over the whole layer, as seen at
     * the array edge (one read per feeder per active cycle).
     */
    struct SramAccessCounts
    {
        Count ifmapReads = 0;
        Count filterReads = 0;
        Count ofmapWrites = 0;
        Count ofmapReads = 0;
    };
    SramAccessCounts sramAccessCounts() const;

  private:
    GemmDims gemm_;
    Dataflow df_;
    MappedDims mapped_;
    std::uint32_t rows_;
    std::uint32_t cols_;
    std::uint64_t rowFolds_;
    std::uint64_t colFolds_;
};

} // namespace scalesim::systolic

#endif // SCALESIM_SYSTOLIC_MAPPING_HH
