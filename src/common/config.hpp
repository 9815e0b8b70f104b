/**
 * @file
 * Run configuration: an INI-style parser mirroring SCALE-Sim's .cfg
 * format plus the typed SimConfig consumed by every module. New v3
 * sections ([sparsity], [memory], [layout], [energy]) extend the v2
 * [architecture] section, as described in the paper.
 */

#ifndef SCALESIM_COMMON_CONFIG_HH
#define SCALESIM_COMMON_CONFIG_HH

#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/hash.hpp"
#include "common/types.hpp"

namespace scalesim
{

/**
 * Minimal INI file: [section] headers, key = value pairs, '#'/';'
 * comments. Section and key lookups are case-insensitive. Every entry
 * remembers its source line, so typed getters report malformed values
 * as `file:line: section.key: ...` instead of silently truncating.
 */
class IniFile
{
  public:
    /** Parse INI text; malformed lines trigger fatal(). */
    static IniFile parseString(const std::string& text,
                               const std::string& name = "<string>");

    /** Load and parse a file; fatal() when unreadable. */
    static IniFile load(const std::string& path);

    bool has(std::string_view section, std::string_view key) const;

    std::string getString(std::string_view section, std::string_view key,
                          const std::string& fallback = "") const;
    /** Parse as integer; trailing garbage and overflow are fatal(). */
    std::int64_t getInt(std::string_view section, std::string_view key,
                        std::int64_t fallback = 0) const;
    /** getInt that additionally rejects negative values. */
    std::uint64_t getUint(std::string_view section, std::string_view key,
                          std::uint64_t fallback = 0) const;
    /** getUint bounded to 32 bits (array dims, queue sizes, ...). */
    std::uint32_t getUint32(std::string_view section, std::string_view key,
                            std::uint32_t fallback = 0) const;
    double getDouble(std::string_view section, std::string_view key,
                     double fallback = 0.0) const;
    bool getBool(std::string_view section, std::string_view key,
                 bool fallback = false) const;
    void set(std::string_view section, std::string_view key,
             const std::string& value);

    /** fatal() as `file:line: section.key: 'value' <what>`. */
    [[noreturn]] void fail(std::string_view section, std::string_view key,
                           const std::string& what) const;

    /**
     * fatal() as `file:line: section.key: unknown key`, naming the
     * entry as written, at the first line whose section and key are
     * not among `known`.
     */
    void rejectUnknownKeys(
        const std::vector<std::pair<std::string_view, std::string_view>>&
            known) const;

  private:
    struct Entry
    {
        std::string value;
        int line = 0; ///< 0 when set programmatically
        std::string name; ///< "section.key" as written
    };

    const Entry* find(std::string_view section,
                      std::string_view key) const;
    [[noreturn]] void badValue(std::string_view section,
                               std::string_view key, const Entry& entry,
                               const char* what) const;

    std::string name_ = "<string>";
    // canonical(section) -> canonical(key) -> entry
    std::map<std::string, std::map<std::string, Entry>> sections_;
};

/** How the compute engine is evaluated. */
enum class SimMode
{
    /** Closed-form runtime and access counts (fast sweeps). */
    Analytical,
    /** Fold-by-fold per-cycle demand streaming (stall-accurate). */
    Trace,
};

/** Double-buffered on-chip SRAM sizes and operand address regions. */
struct MemoryConfig
{
    std::uint64_t ifmapSramKb = 256;
    std::uint64_t filterSramKb = 256;
    std::uint64_t ofmapSramKb = 128;

    /** Base address of each operand region (word addresses). */
    Addr ifmapOffset = 0;
    Addr filterOffset = 10'000'000;
    Addr ofmapOffset = 20'000'000;

    /** Element size in bytes (affects DRAM traffic and storage). */
    std::uint32_t wordBytes = 1;

    /**
     * v2-style "pure bandwidth" main-memory model: words per compute
     * cycle available when the detailed DRAM model is disabled.
     */
    double bandwidthWordsPerCycle = 10.0;

    /** Words per main-memory transaction issued by the scratchpad. */
    std::uint32_t burstWords = 64;

    /** Demand requests the memory front-end can issue per cycle. */
    std::uint32_t issuePerCycle = 1;

    /** Folds the prefetcher may run ahead (1 = double buffering). */
    std::uint32_t prefetchDepth = 1;

    /**
     * Address convolution ifmaps through the real (H, W, C) tensor
     * with overlapping-window reuse (default). false reverts to
     * SCALE-Sim v2's im2col-expanded M x K accounting, where every
     * window element is a distinct address (more DRAM traffic).
     */
    bool im2colAddressing = true;

    /**
     * Record per-fold compute spans for timeline (Chrome trace)
     * export. Off by default — large layers have many folds.
     */
    bool recordFoldSpans = false;
};

/** Sparse-filter representation (paper §IV-C). */
enum class SparseRep
{
    Dense,
    Csr,
    Csc,
    EllpackBlock,
};

std::string toString(SparseRep rep);
SparseRep sparseRepFromString(std::string_view text);

/** [sparsity] section knobs (paper §IV-B Step 1). */
struct SparsityConfig
{
    /** SparsitySupport knob: enables layer-wise sparsity. */
    bool enabled = false;
    /** OptimizedMapping knob: enables row-wise N:M sparsity. */
    bool optimizedMapping = false;
    /** Storage representation; paper evaluations use ellpack_block. */
    SparseRep rep = SparseRep::EllpackBlock;
    /** BlockSize knob: the M of the N:M ratio for row-wise sparsity. */
    std::uint32_t blockSize = 4;
    /** Seed for randomized per-row N values. */
    std::uint64_t seed = 0xC0FFEEull;
};

/** [memory] section knobs (paper §V). */
struct DramConfig
{
    /** Enables the detailed DRAM model (Ramulator substitute). */
    bool enabled = false;
    /** Technology preset name, e.g. DDR4_2400, LPDDR4_3200, HBM2. */
    std::string tech = "DDR4_2400";
    std::uint32_t channels = 1;
    std::uint32_t ranksPerChannel = 1;
    /** Finite request queues; the accelerator stalls when full. */
    std::uint32_t readQueueSize = 128;
    std::uint32_t writeQueueSize = 128;
    /** Compute-clock frequency in MHz, for clock-domain crossing. */
    double coreClockMhz = 1000.0;
};

/** [layout] section knobs (paper §VI). */
struct LayoutModelConfig
{
    /** Enables bank-conflict (data layout) modeling. */
    bool enabled = false;
    std::uint32_t banks = 16;
    std::uint32_t portsPerBank = 2;
    /** Total on-chip words deliverable per cycle across all banks. */
    std::uint32_t onChipBandwidth = 128;
};

/** [energy] section knobs (paper §VII). */
struct EnergyConfig
{
    /** Enables Accelergy-style energy/power estimation. */
    bool enabled = false;
    /** 'row size': words fetched per SRAM access (repeat lookup). */
    std::uint32_t rowSize = 32;
    /** 'bank size': row buffers per SRAM bank (reuse across cycles). */
    std::uint32_t bankSize = 4;
    /**
     * Largest accepted bankSize. The trace counter keeps 4 streams x 32
     * banks x bankSize rows and steps each access in O(bankSize).
     */
    static constexpr std::uint32_t kMaxBankSize = 1024;
    /** Clock for power = energy / time. */
    double frequencyGhz = 1.0;
    /** Technology node tag used to select the energy table. */
    std::string node = "65nm";
};

/** Complete simulator configuration. */
struct SimConfig
{
    std::string runName = "scale_sim_v3";
    std::uint32_t arrayRows = 32;
    std::uint32_t arrayCols = 32;
    Dataflow dataflow = Dataflow::OutputStationary;
    SimMode mode = SimMode::Trace;

    /**
     * Fold-replay demand cache for trace mode: generate each fold
     * equivalence class once and replay shifted copies. Identical
     * output either way; off trades speed for simpler debugging.
     */
    bool foldCache = true;

    /**
     * Audit cross-module conservation laws after every layer and at
     * end of run (check::InvariantAuditor); violations surface through
     * sim.audit.* stats and the JSON report. `--audit` on the CLI.
     */
    bool audit = false;

    /**
     * Emit a time-series stats snapshot every N simulated cycles
     * (RunResult::intervals; gem5-style repeated stats sections, CSV/
     * JSON series, Perfetto counter tracks). 0 disables sampling.
     * `--interval N` on the CLI, `IntervalCycles` in [general].
     */
    std::uint64_t intervalCycles = 0;

    /** Vector/SIMD unit next to the array (§III-C). */
    std::uint32_t simdLanes = 16;
    /** Cycles per vector instruction (customizable latency). */
    std::uint32_t simdLatencyPerOp = 1;

    MemoryConfig memory;
    SparsityConfig sparsity;
    DramConfig dram;
    LayoutModelConfig layout;
    EnergyConfig energy;

    /** Number of PEs in the array. */
    std::uint64_t numPes() const
    {
        return static_cast<std::uint64_t>(arrayRows) * arrayCols;
    }

    /**
     * Check every field against its bounds in the field table
     * (forEachField), then the ordering of the operand offsets and
     * BlockSize >= 2 under OptimizedMapping; fatal() on the first
     * violation.
     */
    void validate() const;

    /**
     * Build a typed config from a parsed INI file, one field-table row
     * per key. A removed or unknown key, a malformed value or one out
     * of its row's bounds is fatal() as `file:line: section.key: ...`.
     */
    static SimConfig fromIni(const IniFile& ini);

    /** Load from a .cfg path. */
    static SimConfig load(const std::string& path);

    /** TPU-v2-like preset used by the paper's overhead study. */
    static SimConfig tpuV2Like();

    /** Google-TPU-like preset used by the paper's memory study (§V-C). */
    static SimConfig tpuMemoryStudy();
};

/** Flags of one SimConfig field-table row (see forEachField). */
enum ConfigFieldFlag : unsigned
{
    /** The value must be non-zero; for a double, positive. */
    kNonZero = 1u << 0,
    /** The value can change a layer's results, so it joins the serve
        cache key (serve::layerCacheKey). */
    kPayload = 1u << 1,
    /** The multi-core trace path honours the value; a payload row
        without it is named by systolic::multiCoreIgnoredFeatures. */
    kMultiCore = 1u << 2,
};

/** One row of the SimConfig field table: an INI key and its member. */
template <class T>
struct ConfigField
{
    const char* section;
    const char* key;
    T& value;
    unsigned flags;
    /** Feature switch the field belongs to: its bounds hold only while
        the switch is on. nullptr when the field stands alone. */
    const bool* gate;
    /** Largest accepted value of an integer field. */
    std::uint64_t max;

    bool has(unsigned flag) const { return (flags & flag) != 0; }
    bool gateOn() const { return !gate || *gate; }
};

/**
 * The SimConfig field table: calls `visit(ConfigField<T>)` once per
 * INI key, in a fixed order. SimConfig::fromIni, the per-field checks
 * of SimConfig::validate, serve::layerCacheKey and
 * systolic::multiCoreIgnoredFeatures all derive from it, so a new knob
 * is one row here.
 */
template <class Cfg, class Visit>
void
forEachField(Cfg&& c, Visit&& visit)
{
    constexpr unsigned NZ = kNonZero, P = kPayload, MC = kMultiCore;
    const auto row = [&](const char* section, const char* key, auto& value,
                         unsigned flags, const bool* gate = nullptr,
                         std::uint64_t max = ~std::uint64_t{0}) {
        visit(ConfigField<std::remove_reference_t<decltype(value)>>{
            section, key, value, flags, gate, max});
    };
    const char* g = "general";
    row(g, "run_name", c.runName, 0);
    row(g, "mode", c.mode, P);
    row(g, "Audit", c.audit, 0);
    row(g, "IntervalCycles", c.intervalCycles, 0);

    const char* a = "architecture";
    auto& m = c.memory;
    row(a, "ArrayHeight", c.arrayRows, NZ | P | MC);
    row(a, "ArrayWidth", c.arrayCols, NZ | P | MC);
    row(a, "Dataflow", c.dataflow, P | MC);
    row(a, "IfmapSramSzkB", m.ifmapSramKb, NZ | P | MC);
    row(a, "FilterSramSzkB", m.filterSramKb, NZ | P | MC);
    row(a, "OfmapSramSzkB", m.ofmapSramKb, NZ | P | MC);
    row(a, "IfmapOffset", m.ifmapOffset, P | MC);
    row(a, "FilterOffset", m.filterOffset, P | MC);
    row(a, "OfmapOffset", m.ofmapOffset, P | MC);
    row(a, "WordBytes", m.wordBytes, NZ | P | MC);
    row(a, "Bandwidth", m.bandwidthWordsPerCycle, NZ | P | MC);
    row(a, "BurstWords", m.burstWords, NZ | P | MC);
    row(a, "IssuePerCycle", m.issuePerCycle, NZ | P | MC);
    row(a, "PrefetchDepth", m.prefetchDepth, NZ | P | MC);
    // Multi-core always addresses ifmaps im2col-expanded.
    row(a, "Im2colAddressing", m.im2colAddressing, P);
    row(a, "RecordFoldSpans", m.recordFoldSpans, 0);
    row(a, "FoldCache", c.foldCache, P);
    row(a, "SimdLanes", c.simdLanes, NZ | P);
    row(a, "SimdLatency", c.simdLatencyPerOp, P);

    const bool* dram = &c.dram.enabled;
    row("memory", "DramModel", c.dram.enabled, P);
    row("memory", "Tech", c.dram.tech, P, dram);
    row("memory", "Channels", c.dram.channels, NZ | P, dram);
    row("memory", "Ranks", c.dram.ranksPerChannel, NZ | P, dram);
    // The scratchpad's request queues exist with or without DRAM.
    row("memory", "ReadQueueSize", c.dram.readQueueSize, NZ | P | MC);
    row("memory", "WriteQueueSize", c.dram.writeQueueSize, NZ | P | MC);
    row("memory", "CoreClockMhz", c.dram.coreClockMhz, NZ | P, dram);

    const bool* layout = &c.layout.enabled;
    row("layout", "LayoutModel", c.layout.enabled, P);
    row("layout", "Banks", c.layout.banks, NZ | P, layout);
    row("layout", "PortsPerBank", c.layout.portsPerBank, NZ | P, layout);
    row("layout", "OnChipBandwidth", c.layout.onChipBandwidth, NZ | P,
        layout);

    const bool* energy = &c.energy.enabled;
    row("energy", "EnergyModel", c.energy.enabled, P);
    row("energy", "RowSize", c.energy.rowSize, NZ | P, energy);
    row("energy", "BankSize", c.energy.bankSize, NZ | P, energy,
        EnergyConfig::kMaxBankSize);
    row("energy", "FrequencyGhz", c.energy.frequencyGhz, NZ | P, energy);
    row("energy", "Node", c.energy.node, P, energy);

    const bool* sparsity = &c.sparsity.enabled;
    row("sparsity", "SparsitySupport", c.sparsity.enabled, P);
    row("sparsity", "OptimizedMapping", c.sparsity.optimizedMapping, P,
        sparsity);
    row("sparsity", "SparseRep", c.sparsity.rep, P, sparsity);
    row("sparsity", "BlockSize", c.sparsity.blockSize, P, sparsity);
    row("sparsity", "Seed", c.sparsity.seed, P, sparsity);
}

/** Feed one field's value to `h`: strings length-prefixed, bools and
    enums as one byte, numbers as their byte image. */
template <class T>
void
mixField(Fnv1a& h, const T& value)
{
    if constexpr (std::is_same_v<T, std::string>)
        h.mixString(value);
    else if constexpr (std::is_enum_v<T> || std::is_same_v<T, bool>)
        h.mix(static_cast<std::uint8_t>(value));
    else
        h.mix(value);
}

} // namespace scalesim

#endif // SCALESIM_COMMON_CONFIG_HH
