/**
 * @file
 * DRAM device timing and geometry presets. Values are JEDEC-style
 * datasheet numbers expressed in memory-controller clock cycles; the
 * preset list covers the technologies the paper's Ramulator integration
 * advertises (DDR3/DDR4/LPDDR4/GDDR5/HBM).
 */

#ifndef SCALESIM_DRAM_TIMING_HH
#define SCALESIM_DRAM_TIMING_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"

namespace scalesim::dram
{

/** Device timing/geometry for one DRAM technology speed bin. */
struct DramTiming
{
    std::string name;

    /** Controller command clock in MHz. */
    double clockMhz = 1200.0;

    /** Bytes moved per column burst (bus width x burst length). */
    std::uint32_t burstBytes = 64;
    /** Data-bus occupancy of one burst, in clocks (BL/2 for DDR). */
    Cycle tBurst = 4;

    Cycle tRCD = 16;  ///< ACT to column command
    Cycle tRP = 16;   ///< PRE to ACT
    Cycle tCL = 16;   ///< read column to first data
    Cycle tCWL = 12;  ///< write column to first data
    Cycle tRAS = 39;  ///< ACT to PRE
    Cycle tRC = 55;   ///< ACT to ACT, same bank
    Cycle tRRD = 6;   ///< ACT to ACT, different banks
    Cycle tFAW = 26;  ///< four-activate window
    Cycle tWR = 18;   ///< write recovery before PRE
    Cycle tRTP = 9;   ///< read to PRE
    Cycle tCCD = 4;   ///< column to column
    Cycle tWTR = 9;   ///< write to read turnaround
    Cycle tREFI = 9360; ///< refresh interval (7.8 us)
    Cycle tRFC = 420;   ///< refresh cycle time

    std::uint32_t banksPerRank = 16;
    std::uint32_t rowsPerBank = 65536;
    /** Row-buffer (page) size in bytes per bank. */
    std::uint64_t rowBytes = 8192;

    /** Columns (bursts) per row. */
    std::uint64_t colsPerRow() const { return rowBytes / burstBytes; }
};

/**
 * Look up a preset by name: DDR3_1600, DDR4_2400, DDR4_3200,
 * LPDDR4_3200, GDDR5_6000, HBM2. Matching is case-insensitive and
 * ignores '-'/'_'. fatal() on unknown names.
 */
DramTiming timingPreset(std::string_view name);

/** Names of all available presets. */
std::vector<std::string> timingPresetNames();

} // namespace scalesim::dram

#endif // SCALESIM_DRAM_TIMING_HH
