/**
 * @file
 * libFuzzer harness for the INI config front-end: feeds arbitrary
 * bytes through IniFile::parseString and SimConfig::fromIni. Any
 * outcome other than a parsed config or a clean FatalError (crash,
 * UB caught by ASan, uncaught exception) is a finding.
 */

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/config.hpp"
#include "common/log.hpp"

extern "C" int
LLVMFuzzerTestOneInput(const std::uint8_t* data, std::size_t size)
{
    scalesim::setQuiet(true);
    const std::string text(reinterpret_cast<const char*>(data), size);
    try {
        const scalesim::IniFile ini =
            scalesim::IniFile::parseString(text, "fuzz.cfg");
        const scalesim::SimConfig cfg = scalesim::SimConfig::fromIni(ini);
        (void)cfg;
    } catch (const scalesim::FatalError&) {
        // Malformed input rejected with a clean diagnostic: expected.
    }
    return 0;
}
