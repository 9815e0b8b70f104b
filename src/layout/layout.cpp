#include "layout/layout.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <string_view>

#include "check/contract.hpp"
#include "common/log.hpp"

namespace scalesim::layout
{

namespace
{

// The shape memo's fixed bounds, 128 KB in all: slots (a power of two,
// at most half of them filled) and key bytes, addressed by 16 bits.
constexpr std::size_t kShapeSlots = 8192;
constexpr std::size_t kShapeBytes = 64 * 1024;
static_assert(kShapeBytes <= std::size_t{1} << 16);

/** Append `v` as a LEB128 varint. */
std::uint8_t*
putVarint(std::uint8_t* out, std::uint64_t v)
{
    while (v >= 0x80) {
        *out++ = static_cast<std::uint8_t>(v | 0x80);
        v >>= 7;
    }
    *out++ = static_cast<std::uint8_t>(v);
    return out;
}

} // namespace

Layout2D
Layout2D::rowMajor(std::uint64_t rows, std::uint64_t cols,
                   std::uint64_t line_words)
{
    Layout2D l;
    l.rows = rows;
    l.cols = cols;
    l.rowStep = 1;
    l.colStep = std::max<std::uint64_t>(1, std::min(cols, line_words));
    return l;
}

Layout2D
Layout2D::colMajor(std::uint64_t rows, std::uint64_t cols,
                   std::uint64_t line_words)
{
    Layout2D l;
    l.rows = rows;
    l.cols = cols;
    l.rowStep = std::max<std::uint64_t>(1, std::min(rows, line_words));
    l.colStep = 1;
    return l;
}

Layout2D
Layout2D::tiled(std::uint64_t rows, std::uint64_t cols,
                std::uint64_t line_words)
{
    Layout2D l;
    l.rows = rows;
    l.cols = cols;
    const std::uint64_t side = std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(std::sqrt(
               static_cast<double>(line_words))));
    l.rowStep = std::max<std::uint64_t>(1, std::min(rows, side));
    l.colStep = std::max<std::uint64_t>(
        1, std::min(cols, line_words / l.rowStep));
    return l;
}

OperandLayouts
OperandLayouts::forGemm(const GemmDims& gemm,
                        const LayoutModelConfig& cfg,
                        LayoutScheme scheme)
{
    const std::uint64_t line_words = std::max<std::uint32_t>(
        1, cfg.onChipBandwidth);
    auto build = [&](std::uint64_t rows, std::uint64_t cols) {
        switch (scheme) {
          case LayoutScheme::RowMajor:
            return Layout2D::rowMajor(rows, cols, line_words);
          case LayoutScheme::ColMajor:
            return Layout2D::colMajor(rows, cols, line_words);
          case LayoutScheme::Tiled:
            return Layout2D::tiled(rows, cols, line_words);
        }
        return Layout2D::rowMajor(rows, cols, line_words);
    };
    OperandLayouts layouts;
    layouts.ifmap = build(gemm.m, gemm.k);
    layouts.filter = build(gemm.k, gemm.n);
    layouts.ofmap = build(gemm.m, gemm.n);
    return layouts;
}

OperandLayouts
OperandLayouts::forOperands(const systolic::OperandMap& map,
                            const LayoutModelConfig& cfg,
                            LayoutScheme scheme)
{
    OperandLayouts layouts = forGemm(map.dims, cfg, scheme);
    if (map.conv) {
        const std::uint64_t line_words = std::max<std::uint32_t>(
            1, cfg.onChipBandwidth);
        switch (scheme) {
          case LayoutScheme::RowMajor:
            layouts.ifmap = Layout2D::rowMajor(map.ifmapRows(),
                                               map.ifmapRowWidth(),
                                               line_words);
            break;
          case LayoutScheme::ColMajor:
            layouts.ifmap = Layout2D::colMajor(map.ifmapRows(),
                                               map.ifmapRowWidth(),
                                               line_words);
            break;
          case LayoutScheme::Tiled:
            layouts.ifmap = Layout2D::tiled(map.ifmapRows(),
                                            map.ifmapRowWidth(),
                                            line_words);
            break;
        }
    }
    return layouts;
}

BankConflictEvaluator::BankConflictEvaluator(
    const LayoutModelConfig& cfg, const OperandLayouts& layouts)
    : cfg_(cfg)
{
    if (cfg_.banks == 0 || cfg_.portsPerBank == 0)
        fatal("layout model needs non-zero banks and ports");
    bandwidthPerBank_ = std::max<std::uint64_t>(
        1, cfg_.onChipBandwidth / cfg_.banks);
    byPorts_ = Divider(cfg_.portsPerBank);
    bankLines_.assign(cfg_.banks, 0);
    bankStamp_.assign(cfg_.banks, 0);
    static_assert(kShapeBytes % sizeof(ShapeSlot) == 0);
    shapeMemo_.resize(kShapeSlots + kShapeBytes / sizeof(ShapeSlot));
    // Sized up front for 400 addresses a stream-cycle: growing it a few
    // bytes at a time fragments the heap around the fold arenas.
    shapeKey_.resize(8192);
    streams_[0].layout = layouts.ifmap;
    streams_[1].layout = layouts.filter;
    streams_[2].layout = layouts.ofmap;
}

void
BankConflictEvaluator::beginLayer(const systolic::FoldGrid& grid,
                                  const systolic::OperandMap& operands)
{
    const Addr bases[] = {operands.ifmapBase, operands.filterBase,
                          operands.ofmapBase};
    const std::uint64_t widths[] = {operands.ifmapRowWidth(),
                                    operands.dims.n, operands.dims.n};
    for (std::size_t s = 0; s < streams_.size(); ++s) {
        StreamMap& map = streams_[s];
        const Layout2D& l = map.layout;
        map.base = bases[s];
        map.rowWidth = std::max<std::uint64_t>(1, widths[s]);
        // line = off / colStep and col = off % colStep in that case.
        map.period = l.rowStep == 1 && l.cols == map.rowWidth
                && map.rowWidth % l.colStep == 0
            ? l.colStep
            : l.rowStep * map.rowWidth;
        map.byPeriod = Divider(map.period);
        map.byRowWidth = Divider(map.rowWidth);
        map.byRowStep = Divider(l.rowStep);
        map.byColStep = Divider(l.colStep);
        map.linesPerRow = ceilDiv(l.cols, l.colStep);
        map.bankOfCol.resize(l.wordsPerLine());
        for (std::uint64_t col = 0; col < map.bankOfCol.size(); ++col) {
            map.bankOfCol[col] = static_cast<std::uint32_t>(
                (col / bandwidthPerBank_) % cfg_.banks);
        }
    }
    idealCycles_ = grid.totalCycles();
    slowedCycles_ = 0;
    conflictCycles_ = 0;
    // Cost vectors name their fold by its indices, which restart with
    // every layer.
    costIndex_.clear();
    costPool_.clear();
    // Shapes are keyed relative to this layer's bases and periods.
    if (shapeEntries_ > 0)
        std::fill_n(shapeMemo_.begin(), kShapeSlots, ShapeSlot{});
    shapeEntries_ = 0;
    shapeBytesUsed_ = 0;
}

void
BankConflictEvaluator::beginCount(std::size_t addrs)
{
    ++epoch_;
    if (2 * addrs > lineSet_.size()) {
        const std::size_t slots = std::bit_ceil(2 * addrs);
        lineSet_.assign(slots, LineSlot{});
        lineSetShift_ = 64 - static_cast<std::uint32_t>(
            std::countr_zero(slots));
    }
}

std::uint64_t
BankConflictEvaluator::operandSlowdown(const StreamMap& map,
                                       std::span<const Addr> reads,
                                       std::span<const Addr> extra,
                                       std::uint64_t rho)
{
    if (reads.empty() && extra.empty())
        return 0;
    beginCount(reads.size() + extra.size());
    const std::uint64_t epoch = epoch_;
    LineSlot* const set = lineSet_.data();
    const std::size_t mask = lineSet_.size() - 1;
    const std::uint32_t shift = lineSetShift_;
    std::uint32_t* const bank_lines = bankLines_.data();
    std::uint64_t* const bank_stamp = bankStamp_.data();
    const std::uint32_t* const bank_of_col = map.bankOfCol.data();
    const std::uint64_t row_step = map.layout.rowStep;
    const std::uint64_t col_step = map.layout.colStep;
    // The busiest bank's distinct lines so far.
    std::uint32_t worst = 0;
    auto add = [&](Addr addr) {
        // Layout2D::lineId / colId and the column's bank, with every
        // division by a precomputed divider or table.
        const std::uint64_t off = addr + rho - map.base;
        const std::uint64_t r = map.byRowWidth.div(off);
        const std::uint64_t c = off - r * map.rowWidth;
        const std::uint64_t r_tile = map.byRowStep.div(r);
        const std::uint64_t c_tile = map.byColStep.div(c);
        const std::uint64_t line = r_tile * map.linesPerRow + c_tile;
        const std::uint32_t bank = bank_of_col[
            (r - r_tile * row_step) * col_step + (c - c_tile * col_step)];
        // Fibonacci hashing picks the first slot; a match must be the
        // same (bank, line) pair.
        std::size_t i = static_cast<std::size_t>(
            ((line ^ (std::uint64_t{bank} << 32))
             * 0x9e3779b97f4a7c15ull) >> shift);
        while (set[i].stamp == epoch) {
            if (set[i].line == line && set[i].bank == bank)
                return;
            i = (i + 1) & mask;
        }
        set[i] = {line, epoch, bank};
        const std::uint32_t lines =
            bank_stamp[bank] == epoch ? bank_lines[bank] + 1 : 1;
        bank_stamp[bank] = epoch;
        bank_lines[bank] = lines;
        worst = std::max(worst, lines);
    };
    for (Addr a : reads)
        add(a);
    for (Addr a : extra)
        add(a);
    // ceil(worst / ports).
    return byPorts_.div(std::uint64_t{worst} + cfg_.portsPerBank - 1);
}

std::uint64_t
BankConflictEvaluator::cycleCost(std::uint32_t stream,
                                 std::span<const Addr> reads,
                                 std::span<const Addr> extra,
                                 std::uint64_t rho)
{
    if (reads.empty() && extra.empty())
        return 0;
    const StreamMap& map = streams_[stream];
    const Addr first = reads.empty() ? extra.front() : reads.front();
    // A stream byte, then varints of at most 10 bytes: rho0, and a step
    // and a length per run.
    const std::size_t max_len = 11 + 20 * (reads.size() + extra.size());
    if (shapeKey_.size() < max_len)
        shapeKey_.resize(max_len);
    std::uint8_t* out = shapeKey_.data();
    *out++ = static_cast<std::uint8_t>(stream);
    out = putVarint(out, map.byPeriod.mod(first + rho - map.base));
    // Steps are taken modulo 2^64 from the first address, whose own
    // step 0 opens the first run; a step is stored zigzag, so small
    // negative ones stay short.
    Addr prev = first;
    std::uint64_t step = 0;
    std::uint64_t run = 0;
    auto close_run = [&] {
        out = putVarint(out, (step << 1) ^ (0 - (step >> 63)));
        out = putVarint(out, run);
    };
    auto add = [&](Addr addr) {
        const std::uint64_t d = addr - prev;
        prev = addr;
        if (d == step) {
            ++run;
            return;
        }
        close_run();
        step = d;
        run = 1;
    };
    for (Addr a : reads)
        add(a);
    for (Addr a : extra)
        add(a);
    close_run();
    const std::size_t len = static_cast<std::size_t>(
        out - shapeKey_.data());
    const std::size_t hash = std::hash<std::string_view>{}(
        std::string_view(reinterpret_cast<const char*>(shapeKey_.data()),
                         len));
    const auto tag = static_cast<std::uint16_t>(hash >> 48);

    ShapeSlot* const slots = shapeMemo_.data();
    auto* const keys = reinterpret_cast<std::uint8_t*>(slots + kShapeSlots);
    std::size_t i = hash & (kShapeSlots - 1);
    while (slots[i].len != 0) {
        const ShapeSlot& slot = slots[i];
        if (slot.tag == tag && slot.len == len
            && std::memcmp(keys + slot.at, shapeKey_.data(), len) == 0) {
            ++shapeHits_;
            SIM_CHECK_EQ(std::uint64_t{slot.cost},
                         operandSlowdown(map, reads, extra, rho),
                         "equal shapes cost the same");
            return slot.cost;
        }
        i = (i + 1) & (kShapeSlots - 1);
    }
    ++shapeMisses_;
    const std::uint64_t cost = operandSlowdown(map, reads, extra, rho);
    if (2 * (shapeEntries_ + 1) <= kShapeSlots
        && shapeBytesUsed_ + len <= kShapeBytes && len <= UINT16_MAX
        && cost <= UINT16_MAX) {
        std::memcpy(keys + shapeBytesUsed_, shapeKey_.data(), len);
        slots[i] = {tag, static_cast<std::uint16_t>(shapeBytesUsed_),
                    static_cast<std::uint16_t>(len),
                    static_cast<std::uint16_t>(cost)};
        shapeBytesUsed_ += len;
        ++shapeEntries_;
    }
    return cost;
}

void
BankConflictEvaluator::cycle(Cycle /*clk*/,
                             std::span<const Addr> ifmap_reads,
                             std::span<const Addr> filter_reads,
                             std::span<const Addr> ofmap_reads,
                             std::span<const Addr> ofmap_writes)
{
    const std::uint64_t ifmap_cost = cycleCost(0, ifmap_reads, {});
    const std::uint64_t filter_cost = cycleCost(1, filter_reads, {});
    const std::uint64_t ofmap_cost = cycleCost(2, ofmap_reads,
                                               ofmap_writes);

    // The three SRAMs are accessed in parallel; the slowest gates the
    // cycle. An idle cycle still takes one cycle.
    const std::uint64_t cost = std::max<std::uint64_t>(
        1, std::max({ifmap_cost, filter_cost, ofmap_cost}));
    slowedCycles_ += cost;
    if (cost > 1)
        ++conflictCycles_;
}

void
BankConflictEvaluator::beginFold(std::uint64_t rf, std::uint64_t cf,
                                 Cycle /*fold_start*/)
{
    foldRf_ = rf;
    foldCf_ = cf;
}

std::size_t
BankConflictEvaluator::cycleCosts(const systolic::FoldCacheEntry& entry,
                                  std::uint32_t stream, std::int64_t delta)
{
    const std::int64_t period = static_cast<std::int64_t>(
        streams_[stream].period);
    std::int64_t rho = delta % period;
    if (rho < 0)
        rho += period;
    const systolic::ReplayMemoKey key{
        entry.rf, entry.cf, static_cast<std::uint64_t>(rho), stream};
    const systolic::FoldCacheEntry::Stream& arena = stream == 0
        ? entry.ifmap
        : stream == 1 ? entry.filter : entry.writes;
    const std::size_t cycles = arena.begin.size() - 1;
    const auto [it, fresh] = costIndex_.try_emplace(
        key, CostSpan{costPool_.size(), cycles});
    SIM_CHECK_EQ(it->second.cycles, entry.writes.begin.size() - 1,
                 "a memoized cost vector covers every fold cycle");
    if (!fresh)
        return it->second.first;
    for (std::size_t c = 0; c < cycles; ++c) {
        const std::span<const Addr> addrs(
            arena.addrs.data() + arena.begin[c],
            arena.begin[c + 1] - arena.begin[c]);
        costPool_.push_back(static_cast<std::uint32_t>(
            cycleCost(stream, addrs, {}, static_cast<std::uint64_t>(rho))));
    }
    return it->second.first;
}

bool
BankConflictEvaluator::replayFold(const systolic::FoldCacheEntry& entry,
                                  Cycle /*fold_start*/,
                                  const systolic::ReplayDeltas& deltas,
                                  bool /*accumulate*/)
{
    // Look all three up before reading: a miss may grow the pool.
    const std::size_t ifmap = cycleCosts(entry, 0, deltas.ifmap);
    const std::size_t filter = cycleCosts(entry, 1, deltas.filter);
    const std::size_t ofmap = cycleCosts(entry, 2, deltas.ofmap);
    const std::uint32_t* const pool = costPool_.data();
    const std::size_t cycles = entry.writes.begin.size() - 1;
    Cycle slowed = 0;
    Count conflicts = 0;
    for (std::size_t c = 0; c < cycles; ++c) {
        const std::uint32_t cost = std::max<std::uint32_t>(
            1, std::max({pool[ifmap + c], pool[filter + c],
                         pool[ofmap + c]}));
        slowed += cost;
        conflicts += cost > 1;
    }
    SIM_CHECK_LE(cycles, slowed, "a replayed fold takes its cycles");
    slowedCycles_ += slowed;
    conflictCycles_ += conflicts;
    if (entry.rf != foldRf_ || entry.cf != foldCf_)
        ++foldsMemoized_;
    return true;
}

double
BankConflictEvaluator::slowdown() const
{
    if (idealCycles_ == 0)
        return 1.0;

    return static_cast<double>(slowedCycles_)
        / static_cast<double>(idealCycles_);
}

} // namespace scalesim::layout
