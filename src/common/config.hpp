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
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <string_view>

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
    /**
     * getUint bounded to 32 bits (array dims, queue sizes, ...) and to
     * `max`; a larger value is fatal() naming the bound.
     */
    std::uint32_t getUint32(
        std::string_view section, std::string_view key,
        std::uint32_t fallback = 0,
        std::uint32_t max = std::numeric_limits<std::uint32_t>::max())
        const;
    double getDouble(std::string_view section, std::string_view key,
                     double fallback = 0.0) const;
    bool getBool(std::string_view section, std::string_view key,
                 bool fallback = false) const;
    /**
     * Parse with `parse`, a *FromString that throws
     * std::invalid_argument; a value it rejects is fatal() as
     * `file:line: section.key: 'value' is not <expected>`.
     */
    template <typename T, typename Parse>
    T
    getEnum(std::string_view section, std::string_view key, T fallback,
            Parse parse, const char* expected) const
    {
        const Entry* entry = find(section, key);
        if (!entry || entry->value.empty())
            return fallback;
        try {
            return parse(entry->value);
        } catch (const std::invalid_argument&) {
            badValue(section, key, *entry,
                     (std::string("is not ") + expected).c_str());
        }
    }

    void set(std::string_view section, std::string_view key,
             const std::string& value);

    /** fatal() as `file:line: section.key: ...` when a key the
        simulator no longer reads is set, saying `why`. */
    void rejectRemovedKey(std::string_view section, std::string_view key,
                          const char* why) const;

    /** Source label used in error messages (path or "<string>"). */
    const std::string& source() const { return name_; }

  private:
    struct Entry
    {
        std::string value;
        int line = 0; ///< 0 when set programmatically
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

/** [memory]/[dram] section knobs (paper §V). */
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
     * Check the configuration for inconsistencies (zero dimensions,
     * empty queues, bad clocks, ...); fatal() with a precise message
     * on the first violation.
     */
    void validate() const;

    /** Build a typed config from a parsed INI file. */
    static SimConfig fromIni(const IniFile& ini);

    /** Load from a .cfg path. */
    static SimConfig load(const std::string& path);

    /** TPU-v2-like preset used by the paper's overhead study. */
    static SimConfig tpuV2Like();

    /** Google-TPU-like preset used by the paper's memory study (§V-C). */
    static SimConfig tpuMemoryStudy();
};

} // namespace scalesim

#endif // SCALESIM_COMMON_CONFIG_HH
