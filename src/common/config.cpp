#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "common/csv.hpp"
#include "common/log.hpp"
#include "common/parse.hpp"

namespace scalesim
{

namespace
{

std::string
canonical(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    for (char c : text) {
        if (c == ' ' || c == '_' || c == '\t')
            continue;
        out.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    }
    return out;
}

/** Parse "trace" | "analytical"; throws std::invalid_argument. */
SimMode
simModeFromString(std::string_view text)
{
    const std::string c = canonical(text);
    if (c == "trace")
        return SimMode::Trace;
    if (c == "analytical")
        return SimMode::Analytical;
    throw std::invalid_argument("unknown mode: " + std::string(text));
}

} // namespace

IniFile
IniFile::parseString(const std::string& text, const std::string& name)
{
    IniFile ini;
    ini.name_ = name;
    std::istringstream in(text);
    std::string line;
    std::string section = "general";
    int line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        if (!line.empty() && line.back() == '\r')
            line.pop_back();
        std::string trimmed = trim(line);
        if (trimmed.empty() || trimmed[0] == '#' || trimmed[0] == ';')
            continue;
        if (trimmed.front() == '[') {
            auto close = trimmed.find(']');
            if (close == std::string::npos)
                fatal("%s:%d: unterminated section header",
                      name.c_str(), line_no);
            section = trim(trimmed.substr(1, close - 1));
            continue;
        }
        auto eq = trimmed.find('=');
        if (eq == std::string::npos) {
            // SCALE-Sim cfg also allows "key : value".
            eq = trimmed.find(':');
        }
        if (eq == std::string::npos)
            fatal("%s:%d: expected key = value", name.c_str(), line_no);
        std::string key = trim(trimmed.substr(0, eq));
        std::string value = trim(trimmed.substr(eq + 1));
        if (key.empty())
            fatal("%s:%d: empty key", name.c_str(), line_no);
        ini.sections_[canonical(section)][canonical(key)] =
            Entry{value, line_no, section + "." + key};
    }
    return ini;
}

IniFile
IniFile::load(const std::string& path)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open config file: %s", path.c_str());
    std::stringstream buffer;
    buffer << in.rdbuf();
    return parseString(buffer.str(), path);
}

void
IniFile::set(std::string_view section, std::string_view key,
             const std::string& value)
{
    sections_[canonical(section)][canonical(key)] = Entry{
        value, 0, std::string(section) + "." + std::string(key)};
}

const IniFile::Entry*
IniFile::find(std::string_view section, std::string_view key) const
{
    auto sec = sections_.find(canonical(section));
    if (sec == sections_.end())
        return nullptr;
    auto it = sec->second.find(canonical(key));
    return it == sec->second.end() ? nullptr : &it->second;
}

void
IniFile::badValue(std::string_view section, std::string_view key,
                  const Entry& entry, const char* what) const
{
    fatal("%s:%d: %.*s.%.*s: '%s' %s", name_.c_str(), entry.line,
          static_cast<int>(section.size()), section.data(),
          static_cast<int>(key.size()), key.data(),
          entry.value.c_str(), what);
}

void
IniFile::fail(std::string_view section, std::string_view key,
              const std::string& what) const
{
    const Entry* entry = find(section, key);
    badValue(section, key, entry ? *entry : Entry{}, what.c_str());
}

void
IniFile::rejectUnknownKeys(
    const std::vector<std::pair<std::string_view, std::string_view>>&
        known) const
{
    std::set<std::pair<std::string, std::string>> names;
    for (const auto& [section, key] : known)
        names.emplace(canonical(section), canonical(key));
    const Entry* first = nullptr;
    for (const auto& [section, keys] : sections_) {
        for (const auto& [key, entry] : keys) {
            if (!names.count({section, key})
                && (!first || entry.line < first->line))
                first = &entry;
        }
    }
    if (first) {
        fatal("%s:%d: %s: unknown key", name_.c_str(), first->line,
              first->name.c_str());
    }
}

bool
IniFile::has(std::string_view section, std::string_view key) const
{
    return find(section, key) != nullptr;
}

std::string
IniFile::getString(std::string_view section, std::string_view key,
                   const std::string& fallback) const
{
    const Entry* entry = find(section, key);
    return entry ? entry->value : fallback;
}

std::int64_t
IniFile::getInt(std::string_view section, std::string_view key,
                std::int64_t fallback) const
{
    const Entry* entry = find(section, key);
    if (!entry || entry->value.empty())
        return fallback;
    const std::string& raw = entry->value;
    char* end = nullptr;
    errno = 0;
    std::int64_t value = std::strtoll(raw.c_str(), &end, 0);
    if (end == raw.c_str() || *end != '\0')
        badValue(section, key, *entry, "is not an integer");
    if (errno == ERANGE)
        badValue(section, key, *entry, "overflows a 64-bit integer");
    return value;
}

std::uint64_t
IniFile::getUint(std::string_view section, std::string_view key,
                 std::uint64_t fallback) const
{
    const Entry* entry = find(section, key);
    if (!entry || entry->value.empty())
        return fallback;
    std::int64_t value = getInt(section, key);
    if (value < 0)
        badValue(section, key, *entry, "must not be negative");
    return static_cast<std::uint64_t>(value);
}

std::uint32_t
IniFile::getUint32(std::string_view section, std::string_view key,
                   std::uint32_t fallback) const
{
    const Entry* entry = find(section, key);
    if (!entry || entry->value.empty())
        return fallback;
    std::uint64_t value = getUint(section, key);
    if (value > std::numeric_limits<std::uint32_t>::max())
        badValue(section, key, *entry, "overflows a 32-bit integer");
    return static_cast<std::uint32_t>(value);
}

double
IniFile::getDouble(std::string_view section, std::string_view key,
                   double fallback) const
{
    const Entry* entry = find(section, key);
    if (!entry || entry->value.empty())
        return fallback;
    double value = 0.0;
    switch (parseDouble(entry->value, value)) {
      case NumberParse::Ok:
        break;
      case NumberParse::Bad:
        badValue(section, key, *entry, "is not a number");
      case NumberParse::OutOfRange:
        badValue(section, key, *entry, "is out of double range");
    }
    return value;
}

bool
IniFile::getBool(std::string_view section, std::string_view key,
                 bool fallback) const
{
    const Entry* entry = find(section, key);
    if (!entry || entry->value.empty())
        return fallback;
    std::string raw = canonical(entry->value);
    if (raw == "true" || raw == "1" || raw == "yes" || raw == "on")
        return true;
    if (raw == "false" || raw == "0" || raw == "no" || raw == "off")
        return false;
    badValue(section, key, *entry, "is not a boolean");
}

std::string
toString(SparseRep rep)
{
    switch (rep) {
      case SparseRep::Dense: return "dense";
      case SparseRep::Csr: return "csr";
      case SparseRep::Csc: return "csc";
      case SparseRep::EllpackBlock: return "ellpack_block";
    }
    return "dense";
}

SparseRep
sparseRepFromString(std::string_view text)
{
    std::string c = canonical(text);
    if (c == "dense")
        return SparseRep::Dense;
    if (c == "csr")
        return SparseRep::Csr;
    if (c == "csc")
        return SparseRep::Csc;
    if (c == "ellpackblock" || c == "blockedellpack" || c == "ellpack")
        return SparseRep::EllpackBlock;
    throw std::invalid_argument("unknown sparse representation: "
                                + std::string(text));
}

namespace
{

/** Keys the simulator no longer reads, and why each was removed. */
constexpr const char* kRemovedKeys[][3] = {
    {"memory", "DramEngine", "because the DRAM controller has one engine"},
    {"multicore", "Engine", "because multi-core co-stepping is serial"},
    {"multicore", "Jobs", "because multi-core co-stepping is serial"},
};

/** Read one table row from `ini`, keeping the default when absent. */
template <class T>
void
readField(const IniFile& ini, const ConfigField<T>& f)
{
    T& v = f.value;
    if constexpr (std::is_same_v<T, std::string>) {
        v = ini.getString(f.section, f.key, v);
    } else if constexpr (std::is_same_v<T, bool>) {
        v = ini.getBool(f.section, f.key, v);
    } else if constexpr (std::is_same_v<T, std::uint32_t>) {
        v = ini.getUint32(f.section, f.key, v);
    } else if constexpr (std::is_same_v<T, std::uint64_t>) {
        v = ini.getUint(f.section, f.key, v);
    } else if constexpr (std::is_same_v<T, double>) {
        v = ini.getDouble(f.section, f.key, v);
    } else {
        const std::string raw = ini.getString(f.section, f.key);
        if (raw.empty())
            return;
        const char* expected =
            "a sparse representation (dense|csr|csc|ellpack_block)";
        try {
            if constexpr (std::is_same_v<T, Dataflow>) {
                expected = "a dataflow (os|ws|is)";
                v = dataflowFromString(raw);
            } else if constexpr (std::is_same_v<T, SimMode>) {
                expected = "a mode (trace|analytical)";
                v = simModeFromString(raw);
            } else {
                v = sparseRepFromString(raw);
            }
        } catch (const std::invalid_argument&) {
            ini.fail(f.section, f.key, std::string("is not ") + expected);
        }
    }
}

/** Call `fail(field, what)` for a row of `cfg` that breaks its bounds
    while its feature switch is on. */
template <class Fail>
void
checkBounds(const SimConfig& cfg, Fail fail)
{
    forEachField(cfg, [&](const auto& f) {
        using V = std::remove_cvref_t<decltype(f.value)>;
        if constexpr (std::is_arithmetic_v<V> && !std::is_same_v<V, bool>) {
            if (!f.gateOn())
                return;
            if (f.has(kNonZero) && !(f.value > 0)) {
                fail(f, std::is_integral_v<V> ? "must be non-zero"
                                              : "must be positive");
            }
            if (f.value > f.max)
                fail(f, "exceeds the maximum of " + std::to_string(f.max));
        }
    });
}

} // namespace

SimConfig
SimConfig::fromIni(const IniFile& ini)
{
    for (const auto& [section, key, why] : kRemovedKeys) {
        if (ini.has(section, key)) {
            ini.fail(section, key,
                     std::string("is no longer accepted: the key was "
                                 "removed ") + why);
        }
    }
    SimConfig cfg;
    std::vector<std::pair<std::string_view, std::string_view>> known;
    forEachField(cfg, [&](const auto& f) {
        known.emplace_back(f.section, f.key);
    });
    ini.rejectUnknownKeys(known);
    forEachField(cfg, [&](const auto& f) { readField(ini, f); });
    checkBounds(cfg, [&](const auto& f, const std::string& what) {
        ini.fail(f.section, f.key, what);
    });
    return cfg;
}

void
SimConfig::validate() const
{
    checkBounds(*this, [](const auto& f, const std::string& what) {
        fatal("%s.%s %.17g %s", f.section, f.key,
              static_cast<double>(f.value), what.c_str());
    });
    // Operand regions must not overlap (addresses are word-granular
    // and region extents are workload-dependent, so require distinct,
    // ordered bases with generous gaps).
    if (memory.ifmapOffset >= memory.filterOffset
        || memory.filterOffset >= memory.ofmapOffset) {
        fatal("operand address regions must be ordered "
              "ifmap < filter < ofmap");
    }
    if (sparsity.optimizedMapping && sparsity.blockSize < 2)
        fatal("row-wise sparsity needs BlockSize >= 2 (got %u)",
              sparsity.blockSize);
}

SimConfig
SimConfig::load(const std::string& path)
{
    return fromIni(IniFile::load(path));
}

SimConfig
SimConfig::tpuV2Like()
{
    // TPU-v2-ish tensor core: 128x128 MXU, large unified buffers.
    SimConfig cfg;
    cfg.runName = "tpu_v2_like";
    cfg.arrayRows = 128;
    cfg.arrayCols = 128;
    cfg.dataflow = Dataflow::WeightStationary;
    cfg.memory.ifmapSramKb = 6144;
    cfg.memory.filterSramKb = 6144;
    cfg.memory.ofmapSramKb = 2048;
    cfg.memory.bandwidthWordsPerCycle = 100.0;
    return cfg;
}

SimConfig
SimConfig::tpuMemoryStudy()
{
    // Section V-C: TPU configuration, 128-entry queues, DDR4-2400.
    SimConfig cfg = tpuV2Like();
    cfg.runName = "tpu_memory_study";
    cfg.dram.enabled = true;
    cfg.dram.tech = "DDR4_2400";
    cfg.dram.channels = 1;
    cfg.dram.readQueueSize = 128;
    cfg.dram.writeQueueSize = 128;
    return cfg;
}

} // namespace scalesim
