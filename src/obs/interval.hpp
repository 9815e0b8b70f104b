/**
 * @file
 * Interval time-series telemetry: gem5-style periodic statistics.
 * An IntervalSampler snapshots a cumulative StatsRegistry whenever the
 * simulated clock crosses an N-cycle boundary and stores the *delta*
 * of every additive stat since the previous snapshot, producing an
 * IntervalSeries — a value type that renders as repeated stats.txt
 * sections, a time-series CSV/JSON, or Chrome/Perfetto counter tracks,
 * and merges deterministically across parallel sweep workers.
 *
 * Components are simulated a layer at a time, so the sampler is fed at
 * layer boundaries: rows land on the first sample at-or-after each
 * boundary and are spaced at least N cycles apart (a layer longer than
 * N cycles yields one row covering the whole layer, not fabricated
 * sub-layer rows).
 */

#ifndef SCALESIM_OBS_INTERVAL_HH
#define SCALESIM_OBS_INTERVAL_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace scalesim::obs
{

class StatsRegistry;
class TraceBuilder;

/** One interval: every additive stat's delta since the previous row. */
struct IntervalRow
{
    /** Simulated cycle at which this snapshot was taken. */
    std::uint64_t cycle = 0;

    /** Name-sorted (stat, delta) pairs; zero deltas are kept so the
     *  schema is identical across rows. */
    std::vector<std::pair<std::string, double>> deltas;
};

/** An ordered list of interval rows plus its sampling period. */
struct IntervalSeries
{
    std::uint64_t interval = 0;
    std::vector<IntervalRow> rows;

    bool empty() const { return rows.empty(); }

    /** Repeated gem5-style "Begin/End" sections, one per row. */
    void writeStatsText(std::ostream& out) const;

    /** Wide CSV: `cycle` column + the sorted union of stat names. */
    void writeCsv(std::ostream& out) const;

    /** JSON: {"interval": N, "rows": [{"cycle": c, "stats": {...}}]}. */
    void writeJson(std::ostream& out) const;

    /**
     * Emit one Perfetto counter sample per row for every stat whose
     * name starts with `prefix`, on counter track `track` of process
     * `pid` (1 cycle = 1 µs, matching the simulator's span traces).
     */
    void toCounterTracks(TraceBuilder& trace, std::uint32_t pid,
                         std::string_view prefix,
                         std::string_view track) const;
};

/**
 * Boundary-crossing sampler; see file comment. Feed it monotonically
 * increasing (cycle, cumulative-registry) observations; it emits one
 * IntervalRow per crossed boundary batch.
 */
class IntervalSampler
{
  public:
    /** `interval` == 0 disables sampling entirely. */
    explicit IntervalSampler(std::uint64_t interval);

    bool enabled() const { return interval_ != 0; }

    /**
     * Observe the cumulative registry at simulated cycle `now`.
     * Emits a row iff `now` has reached the next interval boundary.
     */
    void sample(std::uint64_t now, const StatsRegistry& reg);

    /** Emit a final partial row if anything accrued past the last
     *  boundary row (so series totals match run totals). */
    void finish(std::uint64_t now, const StatsRegistry& reg);

    const IntervalSeries& series() const { return series_; }
    IntervalSeries takeSeries() { return std::move(series_); }

  private:
    void emitRow(std::uint64_t cycle, const StatsRegistry& reg);

    std::uint64_t interval_;
    std::uint64_t nextBoundary_;
    std::uint64_t lastCycle_ = 0;
    /** Flattened snapshot at the previous emitted row. */
    std::vector<std::pair<std::string, double>> last_;
    IntervalSeries series_;
};

} // namespace scalesim::obs

#endif // SCALESIM_OBS_INTERVAL_HH
