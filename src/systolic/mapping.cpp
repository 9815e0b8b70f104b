#include "systolic/mapping.hpp"

#include "common/log.hpp"

namespace scalesim::systolic
{

OperandMap
OperandMap::forLayer(const LayerSpec& layer, const MemoryConfig& mem)
{
    OperandMap map(layer.toGemm(), mem);
    if (layer.type == LayerType::Conv) {
        map.conv = true;
        map.ifmapH = layer.ifmapH;
        map.ifmapW = layer.ifmapW;
        map.channels = layer.channels;
        map.filterH = layer.filterH;
        map.filterW = layer.filterW;
        map.stride = layer.stride;
        map.ofmapW = layer.ofmapW();
        map.batch = layer.batch == 0 ? 1 : layer.batch;
    }
    return map;
}

MappedDims
mapGemmConventional(const GemmDims& gemm, Dataflow df)
{
    switch (df) {
      case Dataflow::WeightStationary:
        return {gemm.k, gemm.n, gemm.m};
      case Dataflow::InputStationary:
        return {gemm.k, gemm.m, gemm.n};
      case Dataflow::OutputStationary:
        return {gemm.m, gemm.n, gemm.k};
    }
    return {gemm.m, gemm.n, gemm.k};
}

FoldGrid::FoldGrid(const GemmDims& gemm, Dataflow df, std::uint32_t rows,
                   std::uint32_t cols)
    : gemm_(gemm), df_(df), mapped_(mapGemmConventional(gemm, df)),
      rows_(rows), cols_(cols)
{
    if (rows_ == 0 || cols_ == 0)
        fatal("systolic array dimensions must be non-zero");
    if (gemm_.m == 0 || gemm_.n == 0 || gemm_.k == 0)
        fatal("GEMM dimensions must be non-zero");
    rowFolds_ = ceilDiv(mapped_.sr, rows_);
    colFolds_ = ceilDiv(mapped_.sc, cols_);
}

std::uint64_t
FoldGrid::tileRows(std::uint64_t rf) const
{
    const std::uint64_t base = rf * rows_;
    return std::min<std::uint64_t>(rows_, mapped_.sr - base);
}

std::uint64_t
FoldGrid::tileCols(std::uint64_t cf) const
{
    const std::uint64_t base = cf * cols_;
    return std::min<std::uint64_t>(cols_, mapped_.sc - base);
}

double
FoldGrid::utilization() const
{
    const double pe_cycles = static_cast<double>(totalCycles())
        * rows_ * cols_;
    if (pe_cycles <= 0.0)
        return 0.0;
    return static_cast<double>(gemm_.macs()) / pe_cycles;
}

double
FoldGrid::mappingEfficiency() const
{
    const double mapped_area = static_cast<double>(mapped_.sr)
        * static_cast<double>(mapped_.sc);
    const double fold_area = static_cast<double>(rowFolds_) * rows_
        * static_cast<double>(colFolds_) * cols_;
    if (fold_area <= 0.0)
        return 0.0;
    return mapped_area / fold_area;
}

FoldGrid::SramAccessCounts
FoldGrid::sramAccessCounts() const
{
    SramAccessCounts counts;
    const std::uint64_t sr = mapped_.sr;
    const std::uint64_t sc = mapped_.sc;
    const std::uint64_t t = mapped_.t;
    switch (df_) {
      case Dataflow::OutputStationary:
        counts.ifmapReads = sr * t * colFolds_;
        counts.filterReads = sc * t * rowFolds_;
        counts.ofmapWrites = sr * sc;
        break;
      case Dataflow::WeightStationary:
      case Dataflow::InputStationary: {
        // The stationary operand (WS: filter, IS: ifmap) loads each
        // element once; the streamed one is read once per column fold.
        const bool ws = df_ == Dataflow::WeightStationary;
        (ws ? counts.filterReads : counts.ifmapReads) = sr * sc;
        (ws ? counts.ifmapReads : counts.filterReads) =
            sr * t * colFolds_;
        counts.ofmapWrites = sc * t * rowFolds_;
        counts.ofmapReads = sc * t * (rowFolds_ - 1);
        break;
      }
    }
    return counts;
}

} // namespace scalesim::systolic
