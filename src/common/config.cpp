#include "common/config.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>

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
            Entry{value, line_no};
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
    sections_[canonical(section)][canonical(key)] = Entry{value, 0};
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
IniFile::rejectRemovedKey(std::string_view section, std::string_view key,
                          const char* why) const
{
    if (const Entry* entry = find(section, key)) {
        const std::string what =
            std::string("is no longer accepted: the key was removed ")
            + why;
        badValue(section, key, *entry, what.c_str());
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
                   std::uint32_t fallback, std::uint32_t max) const
{
    const Entry* entry = find(section, key);
    if (!entry || entry->value.empty())
        return fallback;
    std::uint64_t value = getUint(section, key);
    if (value > std::numeric_limits<std::uint32_t>::max())
        badValue(section, key, *entry, "overflows a 32-bit integer");
    if (value > max) {
        badValue(section, key, *entry,
                 format("exceeds the maximum of %u", max).c_str());
    }
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

SimConfig
SimConfig::fromIni(const IniFile& ini)
{
    SimConfig cfg;
    cfg.runName = ini.getString("general", "run_name", cfg.runName);

    cfg.arrayRows = ini.getUint32("architecture", "ArrayHeight",
                                  cfg.arrayRows);
    cfg.arrayCols = ini.getUint32("architecture", "ArrayWidth",
                                  cfg.arrayCols);
    if (cfg.arrayRows == 0 || cfg.arrayCols == 0)
        fatal("array dimensions must be non-zero");

    cfg.dataflow = ini.getEnum("architecture", "Dataflow", cfg.dataflow,
                               dataflowFromString, "a dataflow (os|ws|is)");
    cfg.mode = ini.getEnum("general", "mode", cfg.mode, simModeFromString,
                           "a mode (trace|analytical)");
    cfg.audit = ini.getBool("general", "Audit", cfg.audit);
    cfg.intervalCycles = ini.getUint("general", "IntervalCycles",
                                     cfg.intervalCycles);

    cfg.memory.ifmapSramKb = ini.getUint(
        "architecture", "IfmapSramSzkB", cfg.memory.ifmapSramKb);
    cfg.memory.filterSramKb = ini.getUint(
        "architecture", "FilterSramSzkB", cfg.memory.filterSramKb);
    cfg.memory.ofmapSramKb = ini.getUint(
        "architecture", "OfmapSramSzkB", cfg.memory.ofmapSramKb);
    cfg.memory.ifmapOffset = ini.getUint(
        "architecture", "IfmapOffset", cfg.memory.ifmapOffset);
    cfg.memory.filterOffset = ini.getUint(
        "architecture", "FilterOffset", cfg.memory.filterOffset);
    cfg.memory.ofmapOffset = ini.getUint(
        "architecture", "OfmapOffset", cfg.memory.ofmapOffset);
    cfg.memory.wordBytes = ini.getUint32(
        "architecture", "WordBytes", cfg.memory.wordBytes);
    cfg.memory.bandwidthWordsPerCycle = ini.getDouble(
        "architecture", "Bandwidth", cfg.memory.bandwidthWordsPerCycle);
    cfg.memory.burstWords = ini.getUint32(
        "architecture", "BurstWords", cfg.memory.burstWords);
    cfg.memory.issuePerCycle = ini.getUint32(
        "architecture", "IssuePerCycle", cfg.memory.issuePerCycle);
    cfg.memory.prefetchDepth = ini.getUint32(
        "architecture", "PrefetchDepth", cfg.memory.prefetchDepth);
    cfg.memory.im2colAddressing = ini.getBool(
        "architecture", "Im2colAddressing",
        cfg.memory.im2colAddressing);
    cfg.memory.recordFoldSpans = ini.getBool(
        "architecture", "RecordFoldSpans",
        cfg.memory.recordFoldSpans);
    cfg.foldCache = ini.getBool("architecture", "FoldCache",
                                cfg.foldCache);
    cfg.simdLanes = ini.getUint32("architecture", "SimdLanes",
                                  cfg.simdLanes);
    cfg.simdLatencyPerOp = ini.getUint32(
        "architecture", "SimdLatency", cfg.simdLatencyPerOp);

    cfg.sparsity.enabled = ini.getBool("sparsity", "SparsitySupport",
                                       cfg.sparsity.enabled);
    cfg.sparsity.optimizedMapping = ini.getBool(
        "sparsity", "OptimizedMapping", cfg.sparsity.optimizedMapping);
    cfg.sparsity.rep = ini.getEnum(
        "sparsity", "SparseRep", cfg.sparsity.rep, sparseRepFromString,
        "a sparse representation (dense|csr|csc|ellpack_block)");
    cfg.sparsity.blockSize = ini.getUint32(
        "sparsity", "BlockSize", cfg.sparsity.blockSize);
    cfg.sparsity.seed = ini.getUint("sparsity", "Seed",
                                    cfg.sparsity.seed);

    cfg.dram.enabled = ini.getBool("memory", "DramModel",
                                   cfg.dram.enabled);
    cfg.dram.tech = ini.getString("memory", "Tech", cfg.dram.tech);
    ini.rejectRemovedKey("memory", "DramEngine",
                         "because the DRAM controller has one engine");
    cfg.dram.channels = ini.getUint32("memory", "Channels",
                                      cfg.dram.channels);
    cfg.dram.ranksPerChannel = ini.getUint32(
        "memory", "Ranks", cfg.dram.ranksPerChannel);
    cfg.dram.readQueueSize = ini.getUint32(
        "memory", "ReadQueueSize", cfg.dram.readQueueSize);
    cfg.dram.writeQueueSize = ini.getUint32(
        "memory", "WriteQueueSize", cfg.dram.writeQueueSize);
    cfg.dram.coreClockMhz = ini.getDouble("memory", "CoreClockMhz",
                                          cfg.dram.coreClockMhz);

    for (const char* key : {"Engine", "Jobs"}) {
        ini.rejectRemovedKey("multicore", key,
                             "because multi-core co-stepping is serial");
    }

    cfg.layout.enabled = ini.getBool("layout", "LayoutModel",
                                     cfg.layout.enabled);
    cfg.layout.banks = ini.getUint32("layout", "Banks",
                                     cfg.layout.banks);
    cfg.layout.portsPerBank = ini.getUint32(
        "layout", "PortsPerBank", cfg.layout.portsPerBank);
    cfg.layout.onChipBandwidth = ini.getUint32(
        "layout", "OnChipBandwidth", cfg.layout.onChipBandwidth);

    cfg.energy.enabled = ini.getBool("energy", "EnergyModel",
                                     cfg.energy.enabled);
    cfg.energy.rowSize = ini.getUint32("energy", "RowSize",
                                       cfg.energy.rowSize);
    cfg.energy.bankSize = ini.getUint32("energy", "BankSize",
                                        cfg.energy.bankSize,
                                        EnergyConfig::kMaxBankSize);
    cfg.energy.frequencyGhz = ini.getDouble("energy", "FrequencyGhz",
                                            cfg.energy.frequencyGhz);
    cfg.energy.node = ini.getString("energy", "Node", cfg.energy.node);
    return cfg;
}

void
SimConfig::validate() const
{
    if (arrayRows == 0 || arrayCols == 0)
        fatal("array dimensions must be non-zero (%ux%u)", arrayRows,
              arrayCols);
    if (simdLanes == 0)
        fatal("SimdLanes must be non-zero");
    if (memory.wordBytes == 0)
        fatal("WordBytes must be non-zero");
    if (memory.burstWords == 0)
        fatal("BurstWords must be non-zero");
    if (memory.issuePerCycle == 0)
        fatal("IssuePerCycle must be non-zero");
    if (memory.prefetchDepth == 0)
        fatal("PrefetchDepth must be non-zero");
    if (memory.bandwidthWordsPerCycle <= 0.0)
        fatal("Bandwidth must be positive");
    if (memory.ifmapSramKb == 0 || memory.filterSramKb == 0
        || memory.ofmapSramKb == 0) {
        fatal("SRAM sizes must be non-zero");
    }
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
    if (dram.enabled) {
        if (dram.channels == 0)
            fatal("DRAM needs at least one channel");
        if (dram.readQueueSize == 0 || dram.writeQueueSize == 0)
            fatal("request queues must be non-empty");
        if (dram.coreClockMhz <= 0.0)
            fatal("CoreClockMhz must be positive");
    }
    if (layout.enabled) {
        if (layout.banks == 0 || layout.portsPerBank == 0)
            fatal("layout model needs non-zero banks and ports");
        if (layout.onChipBandwidth == 0)
            fatal("OnChipBandwidth must be non-zero");
    }
    if (energy.enabled) {
        if (energy.rowSize == 0 || energy.bankSize == 0)
            fatal("energy RowSize/BankSize must be non-zero");
        if (energy.bankSize > EnergyConfig::kMaxBankSize)
            fatal("energy BankSize %u exceeds the maximum of %u",
                  energy.bankSize, EnergyConfig::kMaxBankSize);
        if (energy.frequencyGhz <= 0.0)
            fatal("FrequencyGhz must be positive");
    }
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
