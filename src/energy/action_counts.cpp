#include "energy/action_counts.hpp"

#include <algorithm>
#include <bit>

#include "check/contract.hpp"
#include "common/log.hpp"

namespace scalesim::energy
{

namespace
{

/** Number of banked row-buffer trackers in the repeat lookup. */
constexpr std::uint32_t kTrackerBanks = 32;

/**
 * MRU lookup+update of one capacity-4 tracker bank `b`; true on a hit.
 * Empty slots hold the empty-row marker, which no row equals, so the
 * step needs no bank size. Systolic lanes stride across tracker banks,
 * so hit depth (and hit/miss itself) is data-dependent and
 * unpredictable — a branchy MRU walk eats a mispredict per address.
 * Instead compute the hit mask and the rotated bank state
 * unconditionally; everything lowers to conditional moves.
 */
inline bool
accessMru4(std::uint64_t* b, std::uint64_t row)
{
    const std::uint64_t r0 = b[0];
    const std::uint64_t r1 = b[1];
    const std::uint64_t r2 = b[2];
    const std::uint64_t r3 = b[3];
    const bool h0 = r0 == row;
    const bool h1 = r1 == row;
    const bool h2 = r2 == row;
    const bool h3 = r3 == row;
    // MRU rotate-to-front (or insert-evict on a miss): slot i keeps its
    // value when the hit was above it, else takes its predecessor's.
    b[0] = row;
    b[1] = h0 ? r1 : r0;
    b[2] = (h0 | h1) ? r2 : r1;
    b[3] = (h0 | h1 | h2) ? r3 : r2;
    return h0 | h1 | h2 | h3;
}

/**
 * Charge one layer's §VII-E rules, shared by the trace and analytical
 * paths. `counts` already holds the layer's SRAM accesses on top of
 * `before` (the counts may span many layers). Of the layer's
 * PE-cycles, `macs` are real MACs and the rest are gated or constant.
 */
void
chargeLayer(ActionCounts& counts, const ActionCounts& before,
            std::uint64_t rows, std::uint64_t cols, Cycle cycles,
            Count macs, bool clock_gating)
{
    counts.cycles += cycles;
    const std::uint64_t pe_cycles = rows * cols * cycles;
    counts.macRandom += macs;
    const Count idle_macs = pe_cycles > macs ? pe_cycles - macs : 0;
    (clock_gating ? counts.macGated : counts.macConstant) += idle_macs;

    const Count ifmap_used = counts.ifmapSram.reads()
        - before.ifmapSram.reads();
    const Count filter_used = counts.filterSram.reads()
        - before.filterSram.reads();
    const Count ofmap_used = counts.ofmapSram.reads()
        + counts.ofmapSram.writes() - before.ofmapSram.reads()
        - before.ofmapSram.writes();

    // PE scratchpads follow §VII-E's dataflow-sensitive rules: writes
    // track the SRAM reads that deliver new data, reads track MACs.
    counts.ifmapSpadWrite += ifmap_used;
    counts.ifmapSpadRead += macs;
    counts.weightSpadWrite += filter_used;
    counts.weightSpadRead += macs;
    counts.psumSpadRead += macs;
    counts.psumSpadWrite += macs;

    // Idle port-cycles: ifmap SRAM feeds R ports, filter and ofmap C.
    auto idle = [cycles](std::uint64_t ports, Count used) -> Count {
        return ports * cycles > used ? ports * cycles - used : 0;
    };
    counts.ifmapSram.idle += idle(rows, ifmap_used);
    counts.filterSram.idle += idle(cols, filter_used);
    counts.ofmapSram.idle += idle(cols, ofmap_used);

    // Every SRAM<->array word traverses the array-edge NoC.
    counts.nocWords += ifmap_used + filter_used + ofmap_used;
}

} // namespace

void
ActionCountVisitor::RowTrackerSet::reset(std::uint32_t banks,
                                         std::uint32_t cap)
{
    capacity = cap;
    rows.assign(static_cast<std::size_t>(banks) * cap, kEmptyRow);
}

bool
ActionCountVisitor::RowTrackerSet::access(std::uint64_t bank,
                                          std::uint64_t row)
{
    std::uint64_t* const base = rows.data() + bank * capacity;
    if (capacity == 4)
        return accessMru4(base, row);
    // Rotate [0, slot] right by one so `row` becomes MRU. On a miss the
    // slot is the LRU one, so its row (or empty marker) falls off.
    std::uint64_t* const last = base + capacity - 1;
    std::uint64_t* const slot = std::find(base, last, row);
    const bool hit = *slot == row;
    std::copy_backward(base, slot, slot + 1);
    base[0] = row;
    return hit;
}

std::uint32_t
ActionCountVisitor::RowTrackerSet::size(std::uint64_t bank) const
{
    const auto base = rows.begin() + bank * capacity;
    return static_cast<std::uint32_t>(
        std::find(base, base + capacity, kEmptyRow) - base);
}

ActionCountVisitor::ActionCountVisitor(const EnergyConfig& cfg,
                                       bool clock_gating)
    : cfg_(cfg), clockGating_(clock_gating)
{
    if (cfg_.rowSize == 0)
        fatal("energy RowSize must be non-zero");
    if (cfg_.bankSize == 0)
        fatal("energy BankSize must be non-zero");
    if (cfg_.bankSize > EnergyConfig::kMaxBankSize)
        fatal("energy BankSize %u exceeds the maximum of %u",
              cfg_.bankSize, EnergyConfig::kMaxBankSize);
    // The per-address row lookup runs once per trace address; a
    // power-of-two row size (the default and every preset) turns the
    // division into a shift.
    rowShift_ = std::has_single_bit(cfg_.rowSize)
        ? static_cast<std::uint32_t>(std::countr_zero(cfg_.rowSize))
        : kNoRowShift;
}

void
ActionCountVisitor::beginLayer(const systolic::FoldGrid& grid,
                               const systolic::OperandMap& /*operands*/)
{
    utilization_ = grid.utilization();
    arrayRows_ = grid.arrayRows();
    arrayCols_ = grid.arrayCols();
    ifmapRows_.reset(kTrackerBanks, cfg_.bankSize);
    filterRows_.reset(kTrackerBanks, cfg_.bankSize);
    ofmapReadRows_.reset(kTrackerBanks, cfg_.bankSize);
    ofmapWriteRows_.reset(kTrackerBanks, cfg_.bankSize);
    layerStart_ = counts_;
    // Summaries name their fold by its indices, which restart with
    // every layer.
    summaryIndex_.clear();
    summaries_.clear();
    bankPool_.clear();
    rowPool_.clear();
}

void
ActionCountVisitor::beginFold(std::uint64_t rf, std::uint64_t cf,
                              Cycle /*fold_start*/)
{
    foldRf_ = rf;
    foldCf_ = cf;
}

std::uint64_t
ActionCountVisitor::rowOf(Addr addr) const
{
    const std::uint64_t row = rowShift_ != kNoRowShift
        ? addr >> rowShift_ : addr / cfg_.rowSize;
    SIM_CHECK_NE(row, RowTrackerSet::kEmptyRow,
                 "no address forms the empty-row marker");
    return row;
}

template <typename OnStep>
void
ActionCountVisitor::step(RowTrackerSet& trackers,
                         std::span<const Addr> addrs, std::uint64_t rho,
                         OnStep on_step) const
{
    auto run = [&](auto access) {
        for (Addr addr : addrs) {
            const std::uint64_t row = rowOf(addr + rho);
            const std::uint64_t bank = row % kTrackerBanks;
            on_step(bank, row, access(bank, row));
        }
    };
    // Hot path for the default bank size, its test hoisted out of the
    // address loop.
    if (trackers.capacity == 4) {
        std::uint64_t* const rows = trackers.rows.data();
        run([rows](std::uint64_t bank, std::uint64_t row) {
            return accessMru4(rows + bank * 4, row);
        });
    } else {
        run([&trackers](std::uint64_t bank, std::uint64_t row) {
            return trackers.access(bank, row);
        });
    }
}

const ActionCountVisitor::StreamSummary&
ActionCountVisitor::summary(const systolic::FoldCacheEntry& entry,
                            std::uint32_t stream,
                            std::span<const Addr> addrs, std::uint64_t rho)
{
    const systolic::ReplayMemoKey key{entry.rf, entry.cf, rho, stream};
    const auto [it, fresh] = summaryIndex_.try_emplace(
        key, static_cast<std::uint32_t>(summaries_.size()));
    if (!fresh)
        return summaries_[it->second];

    // Run the stream, offset by rho, through empty trackers. A bank's
    // first `capacity` distinct rows are the only misses here that a
    // non-empty incoming state could turn into hits: until then no row
    // has been evicted, and after them the in-fold rows alone fill the
    // bank. Every hit is a hit in any incoming state.
    const std::uint32_t cap = cfg_.bankSize;
    summaryRows_.reset(kTrackerBanks, cap);
    firstRows_.resize(static_cast<std::size_t>(kTrackerBanks) * cap);
    firstCount_.assign(kTrackerBanks, 0);
    StreamSummary s;
    s.addrs = addrs.size();
    step(summaryRows_, addrs, rho,
         [&](std::uint64_t bank, std::uint64_t row, bool hit) {
             if (hit)
                 ++s.fixedRepeats;
             else if (firstCount_[bank] < cap)
                 firstRows_[bank * cap + firstCount_[bank]++] = row;
         });
    s.firstBank = static_cast<std::uint32_t>(bankPool_.size());
    for (std::uint32_t bank = 0; bank < kTrackerBanks; ++bank) {
        const std::uint32_t n = firstCount_[bank];
        if (n == 0)
            continue;
        SIM_CHECK_EQ(summaryRows_.size(bank), n,
                     "a bank keeps min(distinct rows, capacity) rows");
        bankPool_.push_back({bank, n, rowPool_.size()});
        const auto first = firstRows_.begin() + bank * cap;
        rowPool_.insert(rowPool_.end(), first, first + n);
        const auto mru = summaryRows_.rows.begin() + bank * cap;
        rowPool_.insert(rowPool_.end(), mru, mru + n);
    }
    s.numBanks = static_cast<std::uint32_t>(bankPool_.size())
        - s.firstBank;
    summaries_.push_back(s);
    return summaries_.back();
}

void
ActionCountVisitor::applySummary(RowTrackerSet& trackers,
                                 const systolic::FoldCacheEntry& entry,
                                 std::uint32_t stream,
                                 std::span<const Addr> addrs,
                                 std::int64_t delta, Count& random,
                                 Count& repeat)
{
    if (addrs.empty())
        return;
    // delta = q * rowSize + rho with 0 <= rho < rowSize: shifted rows
    // are the rho-offset canonical rows plus q, in bank (bank + q) % 32.
    const std::int64_t row_size = cfg_.rowSize;
    std::int64_t q = delta / row_size;
    std::int64_t rho = delta % row_size;
    if (rho < 0) {
        rho += row_size;
        --q;
    }
    const StreamSummary& s = summary(entry, stream, addrs,
                                     static_cast<std::uint64_t>(rho));
    const std::uint64_t shift = static_cast<std::uint64_t>(q);
    const std::uint64_t rotate = static_cast<std::uint64_t>(
        ((q % kTrackerBanks) + kTrackerBanks) % kTrackerBanks);
    const std::uint32_t cap = trackers.capacity;
    Count repeats = s.fixedRepeats;
    probe_.reset(1, cap);
    for (std::uint32_t i = 0; i < s.numBanks; ++i) {
        const BankSummary& bs = bankPool_[s.firstBank + i];
        const std::uint64_t bank = (bs.bank + rotate) % kTrackerBanks;
        std::uint64_t* const live = trackers.rows.data() + bank * cap;
        incoming_.assign(live, live + trackers.size(bank));

        // First touches against the incoming rows.
        std::copy(live, live + cap, probe_.rows.begin());
        const std::uint64_t* const first = rowPool_.data() + bs.rows;
        for (std::uint32_t j = 0; j < bs.distinct; ++j) {
            SIM_CHECK_NE(first[j] + shift, RowTrackerSet::kEmptyRow,
                         "a shifted row is never the empty-row marker");
            repeats += probe_.access(0, first[j] + shift);
        }

        // Outgoing state: the in-fold MRU list, then (while the bank has
        // room) the incoming rows the fold did not touch, in order.
        const std::uint64_t* const mru = first + bs.distinct;
        std::uint32_t n_out = 0;
        for (std::uint32_t j = 0; j < bs.distinct; ++j)
            live[n_out++] = mru[j] + shift;
        for (std::uint64_t row : incoming_) {
            if (n_out == cap)
                break;
            if (std::find(live, live + bs.distinct, row)
                == live + bs.distinct) {
                live[n_out++] = row;
            }
        }
        std::fill(live + n_out, live + cap, RowTrackerSet::kEmptyRow);
    }
    repeat += repeats;
    random += s.addrs - repeats;
}

bool
ActionCountVisitor::replayFold(const systolic::FoldCacheEntry& entry,
                               Cycle /*fold_start*/,
                               const systolic::ReplayDeltas& deltas,
                               bool accumulate)
{
    auto apply = [&](RowTrackerSet& trackers, std::uint32_t stream,
                     const systolic::FoldCacheEntry::Stream& arena,
                     std::int64_t delta, SramActionCounts& sram,
                     bool reads) {
        Count& random = reads ? sram.readRandom : sram.writeRandom;
        Count& repeat = reads ? sram.readRepeat : sram.writeRepeat;
        [[maybe_unused]] const Count before = random + repeat;
        applySummary(trackers, entry, stream, arena.addrs, delta, random,
                     repeat);
        SIM_CHECK_EQ(random + repeat - before, arena.addrs.size(),
                     "a summarized stream counts each address once");
    };
    apply(ifmapRows_, 0, entry.ifmap, deltas.ifmap, counts_.ifmapSram,
          true);
    apply(filterRows_, 1, entry.filter, deltas.filter,
          counts_.filterSram, true);
    if (accumulate) {
        apply(ofmapReadRows_, 2, entry.writes, deltas.ofmap,
              counts_.ofmapSram, true);
    }
    apply(ofmapWriteRows_, 2, entry.writes, deltas.ofmap,
          counts_.ofmapSram, false);
    if (entry.rf != foldRf_ || entry.cf != foldCf_)
        ++foldsSummarized_;
    return true;
}

void
ActionCountVisitor::countAccesses(RowTrackerSet& trackers,
                                  std::span<const Addr> addrs,
                                  Count& random, Count& repeat)
{
    Count repeats = 0;
    step(trackers, addrs, 0,
         [&repeats](std::uint64_t, std::uint64_t, bool hit) {
             repeats += hit;
         });
    repeat += repeats;
    random += addrs.size() - repeats;
}

void
ActionCountVisitor::cycle(Cycle /*clk*/,
                          std::span<const Addr> ifmap_reads,
                          std::span<const Addr> filter_reads,
                          std::span<const Addr> ofmap_reads,
                          std::span<const Addr> ofmap_writes)
{
    countAccesses(ifmapRows_, ifmap_reads, counts_.ifmapSram.readRandom,
                  counts_.ifmapSram.readRepeat);
    countAccesses(filterRows_, filter_reads,
                  counts_.filterSram.readRandom,
                  counts_.filterSram.readRepeat);
    countAccesses(ofmapReadRows_, ofmap_reads,
                  counts_.ofmapSram.readRandom,
                  counts_.ofmapSram.readRepeat);
    countAccesses(ofmapWriteRows_, ofmap_writes,
                  counts_.ofmapSram.writeRandom,
                  counts_.ofmapSram.writeRepeat);
}

void
ActionCountVisitor::endLayer(Cycle total_cycles)
{
    // PEs x cycles x utilization are real MACs.
    const std::uint64_t pe_cycles = static_cast<std::uint64_t>(arrayRows_)
        * arrayCols_ * total_cycles;
    const Count macs = static_cast<Count>(
        static_cast<double>(pe_cycles) * utilization_ + 0.5);
    chargeLayer(counts_, layerStart_, arrayRows_, arrayCols_,
                total_cycles, macs, clockGating_);
}

ActionCounts
analyticalActionCounts(const systolic::FoldGrid& grid,
                       const EnergyConfig& cfg, bool clock_gating)
{
    if (cfg.rowSize == 0)
        fatal("energy RowSize must be non-zero");
    ActionCounts counts;
    const auto sram = grid.sramAccessCounts();
    // Every systolic access stream walks row buffers in a structured
    // way: even skewed streams revisit the block a neighboring feeder
    // touched one cycle earlier (see ActionCountVisitor), so the
    // repeat fraction of a `rowSize`-word row buffer approaches
    // (rowSize - 1) / rowSize for reads and writes alike. The trace
    // path measures the exact split; this closed form estimates it.
    const double seq = 1.0
        - 1.0 / static_cast<double>(cfg.rowSize);
    auto split = [&](Count total, double repeat_fraction, Count& random,
                     Count& repeat) {
        repeat = static_cast<Count>(
            static_cast<double>(total) * repeat_fraction + 0.5);
        random = total - repeat;
    };
    split(sram.ifmapReads, seq, counts.ifmapSram.readRandom,
          counts.ifmapSram.readRepeat);
    split(sram.filterReads, seq, counts.filterSram.readRandom,
          counts.filterSram.readRepeat);
    split(sram.ofmapWrites, seq, counts.ofmapSram.writeRandom,
          counts.ofmapSram.writeRepeat);
    split(sram.ofmapReads, seq, counts.ofmapSram.readRandom,
          counts.ofmapSram.readRepeat);

    chargeLayer(counts, ActionCounts{}, grid.arrayRows(), grid.arrayCols(),
                grid.totalCycles(), grid.gemm().macs(), clock_gating);
    return counts;
}

} // namespace scalesim::energy
