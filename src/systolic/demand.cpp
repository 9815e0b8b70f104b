#include "systolic/demand.hpp"

#include <set>
#include <vector>

#include "check/contract.hpp"
#include "common/log.hpp"
#include "systolic/fold_cache.hpp"

namespace scalesim::systolic
{

namespace
{

GemmDims
effectiveGemm(const GemmDims& dense, const KGatherMap* gather)
{
    GemmDims eff = dense;
    if (gather) {
        eff.k = gather->compressedK();
        if (eff.k == 0 || eff.k > dense.k)
            fatal("sparse gather map has invalid compressed K %llu",
                  static_cast<unsigned long long>(eff.k));
    }
    return eff;
}

constexpr std::uint64_t kNoClass = ~static_cast<std::uint64_t>(0);

/**
 * Conv ifmap m-window equivalence class of output pixels
 * [m_lo, m_lo + span). Two windows are shift-equivalent iff both sit
 * inside a single image and their in-image offsets agree modulo one
 * output row (same ow column, oh shifted uniformly). Windows spanning
 * an image boundary shift non-uniformly, so they get no class.
 */
std::uint64_t
convMClass(const OperandMap& op, std::uint64_t m_lo, std::uint64_t span)
{
    const std::uint64_t pixels = op.dims.m / op.batch;
    if (pixels == 0 || op.ofmapW == 0 || span == 0)
        return kNoClass;
    if (m_lo / pixels != (m_lo + span - 1) / pixels)
        return kNoClass;
    return (m_lo % pixels) % op.ofmapW;
}

/**
 * Conv ifmap k-window class: reduction ranges [k_lo, k_lo + span)
 * shift affinely iff their bases agree modulo one filter row
 * (filterW * channels words), which keeps (kw, c) fixed and moves kh
 * uniformly.
 */
std::uint64_t
convKClass(const OperandMap& op, std::uint64_t k_lo)
{
    const std::uint64_t row = op.filterW * op.channels;
    return row == 0 ? kNoClass : k_lo % row;
}

/**
 * Signed shift from address part `from` to `to`. Same-class fold bases
 * move every ifmap address of the fold by one constant, so the shift
 * of the whole fold is that of its base's row base (m) or column
 * offset (k). Unsigned wraparound realizes negative shifts.
 */
std::int64_t
shift(std::uint64_t from, std::uint64_t to)
{
    return static_cast<std::int64_t>(to - from);
}

} // namespace

DemandGenerator::DemandGenerator(const GemmDims& gemm, Dataflow df,
                                 std::uint32_t array_rows,
                                 std::uint32_t array_cols,
                                 const OperandMap& operands,
                                 const KGatherMap* gather)
    : denseGemm_(gemm), effectiveGemm_(effectiveGemm(gemm, gather)),
      grid_(effectiveGemm_, df, array_rows, array_cols),
      operands_(operands), gather_(gather)
{
    if (gather_ && df != Dataflow::WeightStationary) {
        fatal("sparse trace simulation supports weight-stationary only "
              "(as in the paper's evaluations)");
    }
    // Operand addressing always uses the dense dimensions so gathered
    // ifmap reads land on real dense addresses.
    operands_.dims = denseGemm_;
    kOff_.resize(denseGemm_.k);
    for (std::uint64_t k = 0; k < denseGemm_.k; ++k)
        kOff_[k] = operands_.ifmapColOffset(k);
    if (df == Dataflow::WeightStationary) {
        mBase_.resize(denseGemm_.m);
        for (std::uint64_t m = 0; m < denseGemm_.m; ++m)
            mBase_[m] = operands_.ifmapRowBase(m);
    }
}

void
DemandGenerator::runFold(DemandVisitor& visitor, std::uint64_t rf,
                         std::uint64_t cf, Cycle fold_start) const
{
    switch (grid_.dataflow()) {
      case Dataflow::OutputStationary:
        runFoldOs(visitor, rf, cf, fold_start);
        break;
      case Dataflow::WeightStationary:
        runFoldStationary<true>(visitor, rf, cf, fold_start);
        break;
      case Dataflow::InputStationary:
        runFoldStationary<false>(visitor, rf, cf, fold_start);
        break;
    }
}

bool
DemandGenerator::replayKey(std::uint64_t rf, std::uint64_t cf,
                           std::uint64_t& key) const
{
    // The filter (K x N row-major) and ofmap (M x N row-major) streams
    // are affine in both fold bases for every dataflow, so only the
    // ifmap mapping decides the equivalence class.
    switch (grid_.dataflow()) {
      case Dataflow::OutputStationary: {
        if (!operands_.conv) {
            key = 0;
            return true;
        }
        const std::uint64_t mcls = convMClass(
            operands_, rf * grid_.arrayRows(), grid_.tileRows(rf));
        if (mcls == kNoClass)
            return false;
        key = 1 + mcls;
        return true;
      }
      case Dataflow::WeightStationary: {
        if (gather_) {
            // origK() breaks the affine k mapping: row folds are
            // incomparable, but the column folds of one row fold all
            // stream the same gathered ifmap rows (delta 0).
            key = (1ull << 32) + rf;
            return true;
        }
        if (!operands_.conv) {
            key = 0;
            return true;
        }
        const std::uint64_t kcls = convKClass(
            operands_, rf * grid_.arrayRows());
        if (kcls == kNoClass)
            return false;
        key = 1 + kcls;
        return true;
      }
      case Dataflow::InputStationary: {
        if (!operands_.conv) {
            key = 0;
            return true;
        }
        const std::uint64_t mcls = convMClass(
            operands_, cf * grid_.arrayCols(), grid_.tileCols(cf));
        const std::uint64_t kcls = convKClass(
            operands_, rf * grid_.arrayRows());
        if (mcls == kNoClass || kcls == kNoClass)
            return false;
        key = 1 + mcls * (operands_.filterW * operands_.channels)
            + kcls;
        return true;
      }
    }
    return false;
}

ReplayDeltas
DemandGenerator::replayDeltas(const FoldCacheEntry& entry,
                              std::uint64_t rf, std::uint64_t cf) const
{
    const std::uint64_t rows = grid_.arrayRows();
    const std::uint64_t cols = grid_.arrayCols();
    const std::int64_t dsr =
        (static_cast<std::int64_t>(rf)
         - static_cast<std::int64_t>(entry.rf))
        * static_cast<std::int64_t>(rows);
    const std::int64_t dsc =
        (static_cast<std::int64_t>(cf)
         - static_cast<std::int64_t>(entry.cf))
        * static_cast<std::int64_t>(cols);
    const std::int64_t n = static_cast<std::int64_t>(operands_.dims.n);
    ReplayDeltas d;
    switch (grid_.dataflow()) {
      case Dataflow::OutputStationary:
        // ifmap A[m, t], filter B[t, n], ofmap O[m, n].
        d.ifmap = shift(operands_.ifmapRowBase(entry.rf * rows),
                        operands_.ifmapRowBase(rf * rows));
        d.filter = dsc;
        d.ofmap = dsr * n + dsc;
        break;
      case Dataflow::WeightStationary:
        // ifmap A[t, k] (gathered k repeats across column folds),
        // filter B[k, n] stationary, ofmap O[t, n].
        d.ifmap = gather_
            ? 0 : shift(kOff_[entry.rf * rows], kOff_[rf * rows]);
        d.filter = dsr * n + dsc;
        d.ofmap = dsc;
        break;
      case Dataflow::InputStationary:
        // ifmap A[m, k] stationary, filter B[k, t], ofmap O[m, t].
        d.ifmap = shift(operands_.ifmapRowBase(entry.cf * cols),
                        operands_.ifmapRowBase(cf * cols))
            + shift(kOff_[entry.rf * rows], kOff_[rf * rows]);
        d.filter = dsr * n;
        d.ofmap = dsc * n;
        break;
    }
    return d;
}

bool
DemandGenerator::cached() const
{
    // A single-fold layer has nothing to replay.
    return foldCache_ && grid_.numFolds() > 1;
}

bool
DemandGenerator::replayable(std::uint64_t rf, std::uint64_t cf,
                            std::uint64_t& key) const
{
    // Replay requires the canonical (first fold's) tile shape; ragged
    // edge folds run live.
    return grid_.tileRows(rf) == grid_.tileRows(0)
        && grid_.tileCols(cf) == grid_.tileCols(0)
        && replayKey(rf, cf, key);
}

CaptureShape
DemandGenerator::captureShape() const
{
    // Every stream of a fold emits each element of its tile once: the
    // stationary tile (rows x cols), the streamed one (rows x T) and
    // the outputs (OS: rows x cols, else cols x T), all within the
    // fold's 2R + C + T - 2 cycles.
    const std::uint64_t tr = grid_.tileRows(0);
    const std::uint64_t tc = grid_.tileCols(0);
    const std::uint64_t t = grid_.mapped().t;
    CaptureShape shape;
    shape.cycles = grid_.foldCycles();
    switch (grid_.dataflow()) {
      case Dataflow::OutputStationary:
        shape.ifmap = tr * t;
        shape.filter = tc * t;
        shape.writes = tr * tc;
        break;
      case Dataflow::WeightStationary:
        shape.ifmap = tr * t;
        shape.filter = tr * tc;
        shape.writes = tc * t;
        break;
      case Dataflow::InputStationary:
        shape.ifmap = tr * tc;
        shape.filter = tr * t;
        shape.writes = tc * t;
        break;
    }
    return shape;
}

std::size_t
DemandGenerator::captureBytes() const
{
    if (!cached())
        return 0;
    // The cache holds at most kMaxEntries captures at once.
    std::set<std::uint64_t> classes;
    auto open = [&] {
        return classes.size() < FoldReplayCache::kMaxEntries;
    };
    for (std::uint64_t rf = 0; rf < grid_.rowFolds() && open(); ++rf) {
        for (std::uint64_t cf = 0; cf < grid_.colFolds() && open(); ++cf) {
            std::uint64_t key = 0;
            if (replayable(rf, cf, key))
                classes.insert(key);
        }
    }
    return classes.size() * captureShape().bytes();
}

void
DemandGenerator::run(DemandVisitor& visitor,
                     std::pmr::memory_resource* captures) const
{
    cacheStats_ = {};
    visitor.beginLayer(grid_, operands_);
    const Cycle fold_len = grid_.foldCycles();
    const bool cached = this->cached();
    const bool os = grid_.dataflow() == Dataflow::OutputStationary;
    const CaptureShape shape = captureShape();
    FoldReplayCache cache(shape, captures);
    FoldReplayScratch scratch;
    Cycle fold_start = 0;
    for (std::uint64_t rf = 0; rf < grid_.rowFolds(); ++rf) {
        for (std::uint64_t cf = 0; cf < grid_.colFolds(); ++cf) {
            visitor.beginFold(rf, cf, fold_start);
            ++cacheStats_.foldsTotal;
            const bool accumulate = !os && rf > 0;
            FoldCacheEntry* entry = nullptr;
            ReplayDeltas deltas;
            std::uint64_t key = 0;
            if (cached && replayable(rf, cf, key)) {
                entry = cache.find(key);
                if (entry) {
                    deltas = replayDeltas(*entry, rf, cf);
                    ++cacheStats_.foldsReplayed;
                    cacheStats_.addrsReplayed +=
                        entry->addrCount(accumulate);
                } else {
                    // Capture the class's first fold silently; it then
                    // reaches the visitor as a replay of itself at zero
                    // shift, but still counts as live.
                    entry = &cache.insert(key, rf, cf);
                    FoldCaptureVisitor capture(*entry);
                    runFold(capture, rf, cf, fold_start);
                    SIM_CHECK(entry->ifmap.addrs.size() == shape.ifmap
                                  && entry->filter.addrs.size()
                                      == shape.filter
                                  && entry->writes.addrs.size()
                                      == shape.writes
                                  && entry->writes.begin.size()
                                      == shape.cycles + 1,
                              "a capture fills exactly its CaptureShape");
                    ++cacheStats_.foldsLive;
                }
            }
            if (!entry) {
                runFold(visitor, rf, cf, fold_start);
                ++cacheStats_.foldsLive;
            } else if (!visitor.replayFold(*entry, fold_start, deltas,
                                           accumulate)) {
                entry->replay(visitor, fold_start, deltas, accumulate,
                              scratch);
            }
            fold_start += fold_len;
            visitor.endFold(rf, cf, fold_start);
        }
    }
    SIM_CHECK_EQ(cacheStats_.foldsReplayed + cacheStats_.foldsLive,
                 cacheStats_.foldsTotal,
                 "every fold is either replayed or generated live");
    visitor.endLayer(fold_start);
}

void
DemandGenerator::runFoldOs(DemandVisitor& visitor, std::uint64_t rf,
                           std::uint64_t cf, Cycle fold_start) const
{
    const std::uint64_t tr = grid_.tileRows(rf);
    const std::uint64_t tc = grid_.tileCols(cf);
    const std::uint64_t rbase = rf * grid_.arrayRows();
    const std::uint64_t cbase = cf * grid_.arrayCols();
    const std::uint64_t t_extent = grid_.mapped().t; // == K
    const std::uint32_t rows = grid_.arrayRows();
    const Cycle fold_len = grid_.foldCycles();

    std::vector<Addr> row_base(tr);
    for (std::uint64_t r = 0; r < tr; ++r)
        row_base[r] = operands_.ifmapRowBase(rbase + r);
    std::vector<Addr> ifmap, filter, writes;
    ifmap.reserve(tr);
    filter.reserve(tc);
    writes.reserve(std::min(tr, tc));

    for (Cycle clk = 0; clk < fold_len; ++clk) {
        ifmap.clear();
        filter.clear();
        writes.clear();
        // Skewed streams: row r consumes A[rbase+r][clk - r] and
        // column c consumes B[clk - c][cbase+c] while 0 <= t < T.
        const std::uint64_t first = clk >= t_extent ? clk - t_extent + 1
                                                    : 0;
        for (std::uint64_t r = first; r < std::min(tr, clk + 1); ++r)
            ifmap.push_back(row_base[r] + kOff_[clk - r]);
        for (std::uint64_t c = first; c < std::min(tc, clk + 1); ++c)
            filter.push_back(operands_.filterAddr(clk - c, cbase + c));
        // Diagonal drain after fill + stream: diagonal d = r + c leaves
        // at cycle (R + T - 1) + d.
        if (clk + 1 >= rows + t_extent) {
            const std::uint64_t d = clk - (rows + t_extent - 1);
            if (d <= tr + tc - 2) {
                const std::uint64_t r_lo = d >= tc ? d - (tc - 1) : 0;
                const std::uint64_t r_hi = std::min<std::uint64_t>(
                    tr - 1, d);
                for (std::uint64_t r = r_lo; r <= r_hi; ++r) {
                    writes.push_back(operands_.ofmapAddr(
                        rbase + r, cbase + (d - r)));
                }
            }
        }
        visitor.cycle(fold_start + clk, ifmap, filter, {}, writes);
    }
}

template <bool WS>
void
DemandGenerator::runFoldStationary(DemandVisitor& visitor,
                                   std::uint64_t rf, std::uint64_t cf,
                                   Cycle fold_start) const
{
    // Rows hold a K range (compressed under a sparse gather). WS: the
    // filter tile is stationary, columns are N and t runs over M. IS:
    // the ifmap tile is stationary, columns are M and t runs over N.
    const std::uint64_t tr = grid_.tileRows(rf);
    const std::uint64_t tc = grid_.tileCols(cf);
    const std::uint64_t kbase = rf * grid_.arrayRows();
    const std::uint64_t cbase = cf * grid_.arrayCols();
    const std::uint64_t t_extent = grid_.mapped().t;
    const std::uint32_t rows = grid_.arrayRows();
    const Cycle fold_len = grid_.foldCycles();
    const bool accumulate = rf > 0;

    // Column offsets of the K rows this fold holds; sparse runs gather
    // the original K rows.
    std::vector<std::uint64_t> col_off(tr);
    for (std::uint64_t r = 0; r < tr; ++r)
        col_off[r] = kOff_[gather_ ? gather_->origK(kbase + r) : kbase + r];
    std::vector<Addr> row_base;
    if constexpr (!WS) {
        row_base.resize(tc);
        for (std::uint64_t c = 0; c < tc; ++c)
            row_base[c] = operands_.ifmapRowBase(cbase + c);
    }
    // Stationary element (r, c), streamed element (r, t) and output
    // (c, t) of the fold.
    auto preload_addr = [&](std::uint64_t r, std::uint64_t c) -> Addr {
        return WS ? operands_.filterAddr(kbase + r, cbase + c)
                  : row_base[c] + col_off[r];
    };
    auto stream_addr = [&](std::uint64_t r, std::uint64_t t) -> Addr {
        return WS ? mBase_[t] + col_off[r]
                  : operands_.filterAddr(kbase + r, t);
    };
    auto ofmap_addr = [&](std::uint64_t c, std::uint64_t t) -> Addr {
        return WS ? operands_.ofmapAddr(t, cbase + c)
                  : operands_.ofmapAddr(cbase + c, t);
    };
    std::vector<Addr> ifmap, filter, oreads, writes;
    std::vector<Addr>& preload = WS ? filter : ifmap;
    std::vector<Addr>& stream = WS ? ifmap : filter;
    preload.reserve(tc);
    stream.reserve(tr);
    writes.reserve(tc);
    oreads.reserve(tc);

    for (Cycle clk = 0; clk < fold_len; ++clk) {
        ifmap.clear();
        filter.clear();
        oreads.clear();
        writes.clear();
        // Preload, bottom row first so the tile settles as values
        // shift down the array.
        if (clk < tr) {
            for (std::uint64_t c = 0; c < tc; ++c)
                preload.push_back(preload_addr(tr - 1 - clk, c));
        }
        // Skewed stream: row r consumes element (r, t) at
        // clk = R + t + r.
        if (clk >= rows) {
            const Cycle s = clk - rows;
            const std::uint64_t first = s >= t_extent ? s - t_extent + 1
                                                      : 0;
            for (std::uint64_t r = first; r < std::min(tr, s + 1); ++r)
                stream.push_back(stream_addr(r, s - r));
        }
        // Output drain: output (c, t) leaves column c at
        // clk = 2R - 1 + t + c.
        if (clk + 1 >= 2ull * rows) {
            const Cycle s = clk - (2ull * rows - 1);
            for (std::uint64_t c = 0; c < tc && c <= s; ++c) {
                const std::uint64_t t = s - c;
                if (t < t_extent) {
                    const Addr addr = ofmap_addr(c, t);
                    writes.push_back(addr);
                    if (accumulate)
                        oreads.push_back(addr);
                }
            }
        }
        visitor.cycle(fold_start + clk, ifmap, filter, oreads, writes);
    }
}

void
CountingVisitor::cycle(Cycle clk, std::span<const Addr> ifmap_reads,
                       std::span<const Addr> filter_reads,
                       std::span<const Addr> ofmap_reads,
                       std::span<const Addr> ofmap_writes)
{
    ifmapReads += ifmap_reads.size();
    filterReads += filter_reads.size();
    ofmapReads += ofmap_reads.size();
    ofmapWrites += ofmap_writes.size();
    lastCycle = clk;
    if (!ifmap_reads.empty() || !filter_reads.empty()
        || !ofmap_reads.empty() || !ofmap_writes.empty()) {
        ++activeCycles;
    }
}

} // namespace scalesim::systolic
