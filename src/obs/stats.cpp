#include "obs/stats.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <ostream>

#include "check/contract.hpp"
#include "common/log.hpp"
#include "common/serialize.hpp"
#include "obs/json.hpp"

namespace scalesim::obs
{

namespace
{

/** Bucket of a non-negative sample (see Histogram's layout). */
unsigned
bucketOf(double value)
{
    // Bucket i >= 1 holds [2^(i-1), 2^i) and the last one everything
    // from 2^(kBuckets-2) up. For a whole number below that, the
    // bucket is its bit width, with no log2.
    constexpr unsigned kBuckets = Histogram::kBuckets;
    constexpr double kTop = static_cast<double>(std::uint64_t{1}
                                                << (kBuckets - 2));
    if (value >= kTop)
        return kBuckets - 1;
    if (value < 1.0)
        return 0;
    const auto whole = static_cast<std::uint64_t>(value);
    return static_cast<double>(whole) == value
        ? static_cast<unsigned>(std::bit_width(whole))
        : 1 + static_cast<unsigned>(std::log2(value));
}

/** Add `times` >= 1 samples of `value` to `h`; inlined into both
 *  Histogram::sample overloads, so the one-sample path multiplies by
 *  a constant 1 that folds away. */
inline void
addSamples(Histogram& h, double value, std::uint64_t times)
{
    // The bucket layout only covers [0, inf); a negative sample is a
    // caller bug (cycle counts and latencies cannot go backwards).
    SIM_CHECK_LE(0.0, value, "negative histogram sample");
    if (value < 0.0)
        value = 0.0;
    if (h.count == 0) {
        h.minSample = h.maxSample = value;
    } else {
        h.minSample = std::min(h.minSample, value);
        h.maxSample = std::max(h.maxSample, value);
    }
    const double n = static_cast<double>(times);
    h.count += times;
    h.sum += value * n;
    h.sumSq += value * value * n;
    h.buckets[bucketOf(value)] += times;
}

} // namespace

void
Histogram::sample(double value)
{
    addSamples(*this, value, 1);
}

void
Histogram::sample(double value, std::uint64_t times)
{
    if (times != 0)
        addSamples(*this, value, times);
}

void
Histogram::merge(const Histogram& other)
{
    if (other.count == 0)
        return;
    if (count == 0) {
        minSample = other.minSample;
        maxSample = other.maxSample;
    } else {
        minSample = std::min(minSample, other.minSample);
        maxSample = std::max(maxSample, other.maxSample);
    }
    count += other.count;
    sum += other.sum;
    sumSq += other.sumSq;
    for (unsigned i = 0; i < kBuckets; ++i)
        buckets[i] += other.buckets[i];
}

double
Histogram::stdev() const
{
    if (count < 2)
        return 0.0;
    const double n = static_cast<double>(count);
    const double var = (sumSq - sum * sum / n) / (n - 1.0);
    return var > 0.0 ? std::sqrt(var) : 0.0;
}

std::pair<double, double>
Histogram::bucketRange(unsigned i)
{
    if (i == 0)
        return {0.0, 1.0};
    return {std::ldexp(1.0, static_cast<int>(i) - 1),
            std::ldexp(1.0, static_cast<int>(i))};
}

double
Histogram::quantile(double q) const
{
    if (count == 0)
        return 0.0;
    if (q <= 0.0)
        return minSample;
    if (q >= 1.0)
        return maxSample;
    // Rank of the requested quantile within the cumulative counts.
    const double target = q * static_cast<double>(count);
    double cum = 0.0;
    for (unsigned i = 0; i < kBuckets; ++i) {
        if (buckets[i] == 0)
            continue;
        const double in_bucket = static_cast<double>(buckets[i]);
        if (cum + in_bucket >= target) {
            auto [lo, hi] = bucketRange(i);
            // The observed envelope is tighter than the power-of-two
            // bucket bounds (the overflow bucket has no upper bound at
            // all), so clamp before interpolating.
            lo = std::max(lo, minSample);
            hi = std::min(hi, maxSample);
            if (hi <= lo)
                return lo;
            const double frac = (target - cum) / in_bucket;
            return lo + frac * (hi - lo);
        }
        cum += in_bucket;
    }
    return maxSample;
}

void
StatsRegistry::addScalar(std::string_view name, std::string_view desc,
                         double value)
{
    auto it = stats_.find(name);
    if (it == stats_.end()) {
        stats_.emplace(std::string(name),
                       Entry{std::string(desc), value});
        return;
    }
    if (auto* scalar = std::get_if<double>(&it->second.data)) {
        *scalar += value;
    } else {
        panic("stat '%s' re-registered with a different type",
              std::string(name).c_str());
    }
}

void
StatsRegistry::addVectorElem(std::string_view name,
                             std::string_view elem,
                             std::string_view desc, double value)
{
    auto it = stats_.find(name);
    if (it == stats_.end()) {
        VectorData vec;
        vec.elems.emplace_back(std::string(elem), value);
        it = stats_.emplace(std::string(name),
                            Entry{std::string(desc), std::move(vec)})
                 .first;
        return;
    }
    auto* vec = std::get_if<VectorData>(&it->second.data);
    if (!vec) {
        panic("stat '%s' re-registered with a different type",
              std::string(name).c_str());
    }
    for (auto& [e, v] : vec->elems) {
        if (e == elem) {
            v += value;
            return;
        }
    }
    vec->elems.emplace_back(std::string(elem), value);
}

void
StatsRegistry::addDistribution(std::string_view name,
                               std::string_view desc,
                               const Histogram& data)
{
    auto it = stats_.find(name);
    if (it == stats_.end()) {
        stats_.emplace(std::string(name),
                       Entry{std::string(desc), data});
        return;
    }
    auto* hist = std::get_if<Histogram>(&it->second.data);
    if (!hist) {
        panic("stat '%s' re-registered with a different type",
              std::string(name).c_str());
    }
    hist->merge(data);
}

void
StatsRegistry::addFormula(std::string_view name, std::string_view desc,
                          FormulaSpec spec)
{
    if (stats_.find(name) != stats_.end())
        return; // formulas are idempotent; first definition wins
    stats_.emplace(std::string(name),
                   Entry{std::string(desc), std::move(spec)});
}

double
StatsRegistry::scalarValue(std::string_view name) const
{
    auto it = stats_.find(name);
    if (it == stats_.end())
        return 0.0;
    if (const auto* scalar = std::get_if<double>(&it->second.data))
        return *scalar;
    return 0.0;
}

double
StatsRegistry::evaluate(std::string_view name) const
{
    auto it = stats_.find(name);
    if (it == stats_.end())
        return 0.0;
    const auto& data = it->second.data;
    if (const auto* scalar = std::get_if<double>(&data))
        return *scalar;
    if (const auto* vec = std::get_if<VectorData>(&data)) {
        double total = 0.0;
        for (const auto& [e, v] : vec->elems)
            total += v;
        return total;
    }
    if (const auto* hist = std::get_if<Histogram>(&data))
        return static_cast<double>(hist->count);
    return evaluateFormula(std::get<FormulaSpec>(data));
}

double
StatsRegistry::evaluateFormula(const FormulaSpec& spec) const
{
    double numer = 0.0;
    for (const auto& [name, coeff] : spec.numerator)
        numer += coeff * evaluate(name);
    double denom = 1.0;
    if (!spec.denominator.empty()) {
        denom = 0.0;
        for (const auto& [name, coeff] : spec.denominator)
            denom += coeff * evaluate(name);
    }
    if (denom == 0.0)
        return 0.0;
    const double value = spec.scale * numer / denom;
    return std::isfinite(value) ? value : 0.0;
}

bool
StatsRegistry::has(std::string_view name) const
{
    return stats_.find(name) != stats_.end();
}

void
StatsRegistry::merge(const StatsRegistry& other)
{
    for (const auto& [name, entry] : other.stats_) {
        if (const auto* scalar = std::get_if<double>(&entry.data)) {
            addScalar(name, entry.desc, *scalar);
        } else if (const auto* vec =
                       std::get_if<VectorData>(&entry.data)) {
            for (const auto& [elem, value] : vec->elems)
                addVectorElem(name, elem, entry.desc, value);
        } else if (const auto* hist =
                       std::get_if<Histogram>(&entry.data)) {
            addDistribution(name, entry.desc, *hist);
        } else {
            addFormula(name, entry.desc,
                       std::get<FormulaSpec>(entry.data));
        }
    }
}

namespace
{

/** gem5 prints integral values without a fraction. */
std::string
fmtStatValue(double value)
{
    if (std::floor(value) == value && std::abs(value) < 1e15)
        return format("%.0f", value);
    return format("%.6f", value);
}

void
statLine(std::ostream& out, const std::string& name, double value,
         const std::string& desc)
{
    out << format("%-44s %18s  # %s\n", name.c_str(),
                  fmtStatValue(value).c_str(), desc.c_str());
}

} // namespace

void
StatsRegistry::dump(std::ostream& out) const
{
    out << "---------- Begin Simulation Statistics ----------\n";
    for (const auto& [name, entry] : stats_) {
        const auto& data = entry.data;
        if (const auto* scalar = std::get_if<double>(&data)) {
            statLine(out, name, *scalar, entry.desc);
        } else if (const auto* vec = std::get_if<VectorData>(&data)) {
            double total = 0.0;
            for (const auto& [elem, value] : vec->elems) {
                statLine(out, name + "::" + elem, value, entry.desc);
                total += value;
            }
            statLine(out, name + "::total", total, entry.desc);
        } else if (const auto* hist = std::get_if<Histogram>(&data)) {
            statLine(out, name + "::samples",
                     static_cast<double>(hist->count), entry.desc);
            statLine(out, name + "::mean", hist->mean(), entry.desc);
            statLine(out, name + "::stdev", hist->stdev(), entry.desc);
            statLine(out, name + "::min", hist->minSample, entry.desc);
            statLine(out, name + "::max", hist->maxSample, entry.desc);
            statLine(out, name + "::p50", hist->quantile(0.50),
                     entry.desc);
            statLine(out, name + "::p90", hist->quantile(0.90),
                     entry.desc);
            statLine(out, name + "::p99", hist->quantile(0.99),
                     entry.desc);
            for (unsigned i = 0; i < Histogram::kBuckets; ++i) {
                if (hist->buckets[i] == 0)
                    continue;
                const auto [lo, hi] = Histogram::bucketRange(i);
                statLine(out,
                         name + format("::%.0f-%.0f", lo, hi - 1),
                         static_cast<double>(hist->buckets[i]),
                         entry.desc);
            }
        } else {
            statLine(out,
                     name,
                     evaluateFormula(std::get<FormulaSpec>(data)),
                     entry.desc);
        }
    }
    out << "---------- End Simulation Statistics   ----------\n";
}

std::vector<std::pair<std::string, double>>
StatsRegistry::flatten() const
{
    std::vector<std::pair<std::string, double>> out;
    out.reserve(stats_.size());
    for (const auto& [name, entry] : stats_) {
        const auto& data = entry.data;
        if (const auto* scalar = std::get_if<double>(&data)) {
            out.emplace_back(name, *scalar);
        } else if (const auto* vec = std::get_if<VectorData>(&data)) {
            for (const auto& [elem, value] : vec->elems)
                out.emplace_back(name + "::" + elem, value);
        } else if (const auto* hist = std::get_if<Histogram>(&data)) {
            out.emplace_back(name + "::samples",
                             static_cast<double>(hist->count));
            out.emplace_back(name + "::sum", hist->sum);
        }
        // Formulas are derived ratios: deltas of them are meaningless.
    }
    // stats_ is name-sorted but vector elements follow registration
    // order; sort the flat view so snapshots align positionally.
    std::sort(out.begin(), out.end());
    return out;
}

namespace
{

// Variant tags of Entry::data in the binary encoding.
constexpr std::uint8_t kTagScalar = 0;
constexpr std::uint8_t kTagVector = 1;
constexpr std::uint8_t kTagHistogram = 2;
constexpr std::uint8_t kTagFormula = 3;

void
serializeTerms(
    ByteWriter& out,
    const std::vector<std::pair<std::string, double>>& terms)
{
    out.put(static_cast<std::uint64_t>(terms.size()));
    for (const auto& [name, coeff] : terms) {
        out.putString(name);
        out.put(coeff);
    }
}

bool
deserializeTerms(ByteReader& in,
                 std::vector<std::pair<std::string, double>>& terms)
{
    const std::uint64_t n = in.get<std::uint64_t>();
    if (!in.ok() || n > in.remaining())
        return false; // each term needs >= 1 byte; reject absurd sizes
    terms.clear();
    terms.reserve(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n && in.ok(); ++i) {
        std::string name = in.getString();
        const double coeff = in.get<double>();
        terms.emplace_back(std::move(name), coeff);
    }
    return in.ok();
}

void
serializeHistogram(ByteWriter& out, const Histogram& hist)
{
    for (unsigned i = 0; i < Histogram::kBuckets; ++i)
        out.put(hist.buckets[i]);
    out.put(hist.count);
    out.put(hist.sum);
    out.put(hist.sumSq);
    out.put(hist.minSample);
    out.put(hist.maxSample);
}

bool
deserializeHistogram(ByteReader& in, Histogram& hist)
{
    for (unsigned i = 0; i < Histogram::kBuckets; ++i)
        hist.buckets[i] = in.get<std::uint64_t>();
    hist.count = in.get<std::uint64_t>();
    hist.sum = in.get<double>();
    hist.sumSq = in.get<double>();
    hist.minSample = in.get<double>();
    hist.maxSample = in.get<double>();
    return in.ok();
}

} // namespace

void
StatsRegistry::serialize(ByteWriter& out) const
{
    out.put(static_cast<std::uint64_t>(stats_.size()));
    for (const auto& [name, entry] : stats_) {
        out.putString(name);
        out.putString(entry.desc);
        const auto& data = entry.data;
        if (const auto* scalar = std::get_if<double>(&data)) {
            out.put(kTagScalar);
            out.put(*scalar);
        } else if (const auto* vec = std::get_if<VectorData>(&data)) {
            out.put(kTagVector);
            serializeTerms(out, vec->elems);
        } else if (const auto* hist = std::get_if<Histogram>(&data)) {
            out.put(kTagHistogram);
            serializeHistogram(out, *hist);
        } else {
            const auto& spec = std::get<FormulaSpec>(data);
            out.put(kTagFormula);
            serializeTerms(out, spec.numerator);
            serializeTerms(out, spec.denominator);
            out.put(spec.scale);
        }
    }
}

bool
StatsRegistry::deserialize(ByteReader& in)
{
    stats_.clear();
    const std::uint64_t n = in.get<std::uint64_t>();
    if (!in.ok() || n > in.remaining()) {
        stats_.clear();
        return false;
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        std::string name = in.getString();
        std::string desc = in.getString();
        const std::uint8_t tag = in.get<std::uint8_t>();
        if (!in.ok())
            break;
        Entry entry;
        entry.desc = std::move(desc);
        switch (tag) {
          case kTagScalar:
            entry.data = in.get<double>();
            break;
          case kTagVector: {
            VectorData vec;
            if (!deserializeTerms(in, vec.elems)) {
                stats_.clear();
                return false;
            }
            entry.data = std::move(vec);
            break;
          }
          case kTagHistogram: {
            Histogram hist;
            if (!deserializeHistogram(in, hist)) {
                stats_.clear();
                return false;
            }
            entry.data = hist;
            break;
          }
          case kTagFormula: {
            FormulaSpec spec;
            if (!deserializeTerms(in, spec.numerator)
                || !deserializeTerms(in, spec.denominator)) {
                stats_.clear();
                return false;
            }
            spec.scale = in.get<double>();
            entry.data = std::move(spec);
            break;
          }
          default:
            stats_.clear();
            return false;
        }
        if (!in.ok()) {
            stats_.clear();
            return false;
        }
        stats_.emplace(std::move(name), std::move(entry));
    }
    if (!in.ok()) {
        stats_.clear();
        return false;
    }
    return true;
}

void
StatsRegistry::dumpJson(std::ostream& out) const
{
    JsonWriter json(out);
    json.beginObject();
    for (const auto& [name, entry] : stats_) {
        json.key(name).beginObject();
        const auto& data = entry.data;
        if (const auto* scalar = std::get_if<double>(&data)) {
            json.field("kind", "scalar");
            json.field("value", *scalar);
        } else if (const auto* vec = std::get_if<VectorData>(&data)) {
            json.field("kind", "vector");
            double total = 0.0;
            json.key("values").beginObject();
            for (const auto& [elem, value] : vec->elems) {
                json.field(elem, value);
                total += value;
            }
            json.endObject();
            json.field("total", total);
        } else if (const auto* hist = std::get_if<Histogram>(&data)) {
            json.field("kind", "distribution");
            json.field("samples", hist->count);
            json.field("mean", hist->mean());
            json.field("stdev", hist->stdev());
            json.field("min", hist->minSample);
            json.field("max", hist->maxSample);
            json.field("p50", hist->quantile(0.50));
            json.field("p90", hist->quantile(0.90));
            json.field("p99", hist->quantile(0.99));
            json.key("buckets").beginArray();
            for (unsigned i = 0; i < Histogram::kBuckets; ++i) {
                if (hist->buckets[i] == 0)
                    continue;
                const auto [lo, hi] = Histogram::bucketRange(i);
                json.beginObject();
                json.field("lo", lo);
                json.field("hi", hi);
                json.field("count", hist->buckets[i]);
                json.endObject();
            }
            json.endArray();
        } else {
            json.field("kind", "formula");
            json.field("value",
                       evaluateFormula(std::get<FormulaSpec>(data)));
        }
        json.field("desc", entry.desc);
        json.endObject();
    }
    json.endObject();
    out << '\n';
}

} // namespace scalesim::obs
