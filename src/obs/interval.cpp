#include "obs/interval.hpp"

#include <algorithm>
#include <cmath>
#include <map>
#include <ostream>
#include <set>

#include "common/csv.hpp"
#include "common/log.hpp"
#include "obs/json.hpp"
#include "obs/stats.hpp"
#include "obs/trace.hpp"

namespace scalesim::obs
{

namespace
{

/** Match the stats.txt value formatting (gem5 integral style). */
std::string
fmtValue(double value)
{
    if (std::floor(value) == value && std::abs(value) < 1e15)
        return format("%.0f", value);
    return format("%.6f", value);
}

} // namespace

void
IntervalSeries::writeStatsText(std::ostream& out) const
{
    for (const auto& row : rows) {
        out << format("---------- Begin Interval Statistics "
                      "(cycle %llu) ----------\n",
                      static_cast<unsigned long long>(row.cycle));
        for (const auto& [name, delta] : row.deltas) {
            out << format("%-44s %18s  # delta over interval\n",
                          name.c_str(), fmtValue(delta).c_str());
        }
        out << "---------- End Interval Statistics   ----------\n";
    }
}

void
IntervalSeries::writeCsv(std::ostream& out) const
{
    // The schema can widen over a run (vector elements appear on first
    // touch), so the header is the sorted union across all rows.
    std::set<std::string> names;
    for (const auto& row : rows)
        for (const auto& [name, delta] : row.deltas)
            names.insert(name);

    CsvWriter csv(out);
    std::vector<std::string> header;
    header.reserve(names.size() + 1);
    header.emplace_back("cycle");
    header.insert(header.end(), names.begin(), names.end());
    csv.writeRow(header);

    for (const auto& row : rows) {
        std::map<std::string_view, double> present;
        for (const auto& [name, delta] : row.deltas)
            present.emplace(name, delta);
        std::vector<std::string> cells;
        cells.reserve(header.size());
        cells.push_back(std::to_string(row.cycle));
        for (const auto& name : names) {
            const auto it = present.find(name);
            cells.push_back(
                fmtValue(it == present.end() ? 0.0 : it->second));
        }
        csv.writeRow(cells);
    }
}

void
IntervalSeries::writeJson(std::ostream& out) const
{
    JsonWriter json(out);
    json.beginObject();
    json.field("interval", interval);
    json.key("rows").beginArray();
    for (const auto& row : rows) {
        json.beginObject();
        json.field("cycle", row.cycle);
        json.key("stats").beginObject();
        for (const auto& [name, delta] : row.deltas)
            json.field(name, delta);
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.endObject();
    out << '\n';
}

void
IntervalSeries::toCounterTracks(TraceBuilder& trace, std::uint32_t pid,
                                std::string_view prefix,
                                std::string_view track) const
{
    for (const auto& row : rows) {
        for (const auto& [name, delta] : row.deltas) {
            if (name.size() < prefix.size()
                || std::string_view(name).substr(0, prefix.size())
                       != prefix) {
                continue;
            }
            // Strip the shared prefix so the track legend stays short.
            std::string_view series(name);
            series.remove_prefix(prefix.size());
            while (!series.empty()
                   && (series.front() == '.' || series.front() == ':'))
                series.remove_prefix(1);
            trace.addCounter(pid, track, row.cycle,
                             series.empty() ? std::string_view(name)
                                            : series,
                             delta);
        }
    }
}

IntervalSampler::IntervalSampler(std::uint64_t interval)
    : interval_(interval), nextBoundary_(interval)
{
    series_.interval = interval;
}

void
IntervalSampler::emitRow(std::uint64_t cycle, const StatsRegistry& reg)
{
    auto flat = reg.flatten();
    IntervalRow row;
    row.cycle = cycle;
    row.deltas.reserve(flat.size());
    // Two-pointer walk over name-sorted snapshots: stats only ever
    // appear (the registry is append-only), never vanish.
    std::size_t j = 0;
    for (const auto& [name, value] : flat) {
        double prev = 0.0;
        while (j < last_.size() && last_[j].first < name)
            ++j;
        if (j < last_.size() && last_[j].first == name)
            prev = last_[j].second;
        row.deltas.emplace_back(name, value - prev);
    }
    last_ = std::move(flat);
    lastCycle_ = cycle;
    series_.rows.push_back(std::move(row));
}

void
IntervalSampler::sample(std::uint64_t now, const StatsRegistry& reg)
{
    if (!enabled() || now < nextBoundary_)
        return;
    emitRow(now, reg);
    nextBoundary_ = (now / interval_ + 1) * interval_;
}

void
IntervalSampler::finish(std::uint64_t now, const StatsRegistry& reg)
{
    if (!enabled())
        return;
    // A tail shorter than one interval still holds real work; close it
    // out so the series' column sums equal the run totals.
    if (now > lastCycle_ || series_.rows.empty())
        emitRow(now, reg);
}

} // namespace scalesim::obs
