/**
 * @file
 * Unit tests for the common substrate: types, Table-II mapping, CSV
 * and INI parsing, topology loading, built-in workloads, the RNG, and
 * the invariant divider.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/config.hpp"
#include "common/csv.hpp"
#include "common/divider.hpp"
#include "common/log.hpp"
#include "common/rng.hpp"
#include "common/topology.hpp"
#include "systolic/mapping.hpp"
#include "common/types.hpp"
#include "common/workloads.hpp"

using namespace scalesim;

TEST(CeilDiv, Basics)
{
    EXPECT_EQ(ceilDiv(10, 2), 5u);
    EXPECT_EQ(ceilDiv(11, 2), 6u);
    EXPECT_EQ(ceilDiv(1, 7), 1u);
    EXPECT_EQ(ceilDiv(0, 7), 0u);
    EXPECT_EQ(ceilDiv(7, 7), 1u);
    EXPECT_EQ(ceilDiv(8, 7), 2u);
}

namespace
{

/** Divider d against the hardware quotient and remainder of n. */
::testing::AssertionResult
dividesExactly(const Divider& d, std::uint64_t n)
{
    const std::uint64_t q = n / d.divisor();
    const std::uint64_t r = n % d.divisor();
    if (d.div(n) == q && d.mod(n) == r)
        return ::testing::AssertionSuccess();
    return ::testing::AssertionFailure()
        << n << " / " << d.divisor() << ": got " << d.div(n) << " rem "
        << d.mod(n) << ", want " << q << " rem " << r;
}

} // namespace

TEST(Divider, ExactAroundMultiples)
{
    // Numerators k*d - 1, k*d and k*d + 1 for small k, near 2^32 and
    // near 2^64 - 1: the points where a rounded reciprocal goes wrong.
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    for (std::uint64_t d = 1; d <= 4096; ++d) {
        const Divider div(d);
        ASSERT_EQ(div.divisor(), d);
        for (const std::uint64_t k0 :
             {std::uint64_t{0}, (std::uint64_t{1} << 32) / d,
              kMax / d - 3}) {
            for (std::uint64_t j = 0; j < 4 && k0 + j <= kMax / d; ++j) {
                const std::uint64_t n = (k0 + j) * d;
                ASSERT_TRUE(dividesExactly(div, n));
                ASSERT_TRUE(dividesExactly(div, n + 1));
                ASSERT_TRUE(dividesExactly(div, n - 1)); // wraps at 0
            }
        }
        ASSERT_TRUE(dividesExactly(div, kMax));
    }
}

TEST(Divider, ExactOnRandomPairs)
{
    // Divisors and numerators of every bit width, up to 2^64 - 1.
    Rng rng(0xd1u);
    for (int i = 0; i < 100000; ++i) {
        const std::uint64_t d =
            std::max<std::uint64_t>(1, rng.next() >> rng.below(64));
        const std::uint64_t n = rng.next() >> rng.below(64);
        ASSERT_TRUE(dividesExactly(Divider(d), n));
    }
}

TEST(Divider, RejectsZero)
{
    EXPECT_DEATH(Divider(0), "division by zero");
}

TEST(Dataflow, RoundTrip)
{
    for (auto df : {Dataflow::OutputStationary,
                    Dataflow::WeightStationary,
                    Dataflow::InputStationary}) {
        EXPECT_EQ(dataflowFromString(toString(df)), df);
    }
    EXPECT_EQ(dataflowFromString("OS"), Dataflow::OutputStationary);
    EXPECT_EQ(dataflowFromString("Ws"), Dataflow::WeightStationary);
    EXPECT_THROW(dataflowFromString("xx"), std::invalid_argument);
}

TEST(Dataflow, TableTwoMapping)
{
    const GemmDims gemm{100, 200, 300};
    // Paper Table II: IS = (K, N, M), WS = (K, M, N), OS = (M, N, K).
    const MappedDims is = mapGemm(gemm, Dataflow::InputStationary);
    EXPECT_EQ(is.sr, 300u);
    EXPECT_EQ(is.sc, 200u);
    EXPECT_EQ(is.t, 100u);
    const MappedDims ws = mapGemm(gemm, Dataflow::WeightStationary);
    EXPECT_EQ(ws.sr, 300u);
    EXPECT_EQ(ws.sc, 100u);
    EXPECT_EQ(ws.t, 200u);
    const MappedDims os = mapGemm(gemm, Dataflow::OutputStationary);
    EXPECT_EQ(os.sr, 100u);
    EXPECT_EQ(os.sc, 200u);
    EXPECT_EQ(os.t, 300u);
}

TEST(LayerSpec, ConvToGemm)
{
    // 56x56 ifmap, 3x3 filter, 64 channels, 128 filters, stride 1.
    const LayerSpec conv = LayerSpec::conv("c", 56, 56, 3, 3, 64, 128,
                                           1);
    EXPECT_EQ(conv.ofmapH(), 54u);
    EXPECT_EQ(conv.ofmapW(), 54u);
    const GemmDims g = conv.toGemm();
    EXPECT_EQ(g.m, 54u * 54u);
    EXPECT_EQ(g.k, 3u * 3u * 64u);
    EXPECT_EQ(g.n, 128u);
    EXPECT_EQ(conv.macs(), g.m * g.n * g.k);
}

TEST(LayerSpec, StridedConv)
{
    const LayerSpec conv = LayerSpec::conv("c", 224, 224, 7, 7, 3, 64,
                                           2);
    EXPECT_EQ(conv.ofmapH(), (224u - 7u) / 2u + 1u);
    EXPECT_EQ(conv.ofmapW(), 109u);
}

TEST(LayerSpec, GemmLayer)
{
    const LayerSpec fc = LayerSpec::gemm("fc", 1, 1000, 512);
    EXPECT_EQ(fc.toGemm(), (GemmDims{1, 1000, 512}));
    EXPECT_EQ(fc.macs(), 512000u);
}

TEST(Csv, SplitAndTrim)
{
    auto cells = splitCsvLine(" a , b,c ,");
    ASSERT_EQ(cells.size(), 3u);
    EXPECT_EQ(cells[0], "a");
    EXPECT_EQ(cells[1], "b");
    EXPECT_EQ(cells[2], "c");
    EXPECT_EQ(trim("  x  "), "x");
    EXPECT_EQ(trim(""), "");
}

TEST(Csv, TableParsing)
{
    std::istringstream in(
        "# comment\n"
        "Layer name, IFMAP Height, IFMAP Width\n"
        "conv1, 224, 224,\n"
        "\n"
        "conv2, 56, 56\n");
    CsvTable table = CsvTable::parse(in);
    ASSERT_EQ(table.numRows(), 2u);
    EXPECT_EQ(table.cell(0, "layer_name"), "conv1");
    EXPECT_EQ(table.cell(1, "ifmap height"), "56");
    EXPECT_EQ(table.cell(0, "missing"), "");
    EXPECT_LT(table.findColumn("nope"), 0);
}

TEST(Ini, ParseTypedValues)
{
    IniFile ini = IniFile::parseString(
        "[general]\n"
        "run_name = test_run\n"
        "; comment\n"
        "[architecture]\n"
        "ArrayHeight: 16\n"
        "ArrayWidth = 8\n"
        "Dataflow = ws\n"
        "Bandwidth = 12.5\n"
        "[sparsity]\n"
        "SparsitySupport = true\n");
    EXPECT_EQ(ini.getString("general", "run_name"), "test_run");
    EXPECT_EQ(ini.getInt("architecture", "arrayheight"), 16);
    EXPECT_EQ(ini.getInt("ARCHITECTURE", "Array_Width"), 8);
    EXPECT_DOUBLE_EQ(ini.getDouble("architecture", "Bandwidth"), 12.5);
    EXPECT_TRUE(ini.getBool("sparsity", "SparsitySupport"));
    EXPECT_FALSE(ini.has("general", "missing"));
    EXPECT_EQ(ini.getInt("nope", "nope", 42), 42);
}

TEST(Ini, MalformedLinesAreFatal)
{
    EXPECT_THROW(IniFile::parseString("[unterminated\n"), FatalError);
    EXPECT_THROW(IniFile::parseString("keywithoutvalue\n"), FatalError);
}

namespace
{

/** Expect `fn` to throw a FatalError whose message contains `needle`. */
template <typename Fn>
void
expectFatalContaining(Fn&& fn, const std::string& needle)
{
    try {
        fn();
        FAIL() << "expected FatalError mentioning '" << needle << "'";
    } catch (const FatalError& err) {
        EXPECT_NE(std::string(err.what()).find(needle),
                  std::string::npos)
            << "actual message: " << err.what();
    }
}

} // namespace

TEST(Ini, RejectsTrailingGarbageWithFileAndLine)
{
    IniFile ini = IniFile::parseString(
        "[architecture]\nArrayHeight = 32x\n", "bad.cfg");
    expectFatalContaining(
        [&] { (void)ini.getInt("architecture", "ArrayHeight"); },
        "is not an integer");
    expectFatalContaining(
        [&] { (void)ini.getInt("architecture", "ArrayHeight"); },
        "bad.cfg:2");
}

TEST(Ini, RejectsOverflowNegativeAndBadFloats)
{
    IniFile ini = IniFile::parseString(
        "[architecture]\n"
        "ArrayHeight = 99999999999999999999999\n"
        "ArrayWidth = -4\n"
        "Bandwidth = 1e999999\n"
        "IfmapSramSzkB = 5000000000\n",
        "bad.cfg");
    expectFatalContaining(
        [&] { (void)ini.getInt("architecture", "ArrayHeight"); },
        "overflows a 64-bit integer");
    expectFatalContaining(
        [&] { (void)ini.getUint("architecture", "ArrayWidth", 1); },
        "must not be negative");
    expectFatalContaining(
        [&] { (void)ini.getDouble("architecture", "Bandwidth"); },
        "is out of double range");
    expectFatalContaining(
        [&] { (void)ini.getUint32("architecture", "IfmapSramSzkB",
                                  1); },
        "overflows a 32-bit integer");
    // The same malformed values must be rejected on the fromIni path.
    EXPECT_THROW((void)SimConfig::fromIni(ini), FatalError);
}

TEST(Topology, RejectsMalformedDimensions)
{
    const auto parse = [](const char* text) {
        std::istringstream in(text);
        return Topology::parseCsv(in, "bad");
    };
    expectFatalContaining(
        [&] { parse("Layer, M, N, K,\nl0, 12, 12junk, 7,\n"); },
        "bad N value");
    expectFatalContaining(
        [&] {
            parse("Layer, M, N, K,\n"
                  "l0, 12, 99999999999999999999999, 7,\n");
        },
        "overflows");
    expectFatalContaining(
        [&] { parse("Layer, M, N, K,\nl0, -3, 4, 7,\n"); },
        "bad M value");
    expectFatalContaining(
        [&] { parse("Layer, M, N, K,\nl0, , 4, 7,\n"); },
        "missing M");
    expectFatalContaining(
        [&] {
            parse("Layer, M, N, K, SparsitySupport,\n"
                  "l0, 4, 4, 4, 9:4,\n");
        },
        "malformed sparsity ratio");
    expectFatalContaining(
        [&] {
            parse("Layer, M, N, K, SparsitySupport,\n"
                  "l0, 4, 4, 4, 1:99999999999,\n");
        },
        "out of range");
}

TEST(SimConfig, FromIniDefaultsAndOverrides)
{
    IniFile ini = IniFile::parseString(
        "[general]\nrun_name = x\nmode = analytical\n"
        "[architecture]\nArrayHeight = 64\nArrayWidth = 32\n"
        "Dataflow = os\nIfmapSramSzkB = 512\n"
        "[memory]\nDramModel = true\nTech = HBM2\nChannels = 4\n"
        "ReadQueueSize = 32\n"
        "[layout]\nLayoutModel = true\nBanks = 8\n"
        "[energy]\nEnergyModel = true\nRowSize = 16\n");
    SimConfig cfg = SimConfig::fromIni(ini);
    EXPECT_EQ(cfg.runName, "x");
    EXPECT_EQ(cfg.mode, SimMode::Analytical);
    EXPECT_EQ(cfg.arrayRows, 64u);
    EXPECT_EQ(cfg.arrayCols, 32u);
    EXPECT_EQ(cfg.numPes(), 2048u);
    EXPECT_EQ(cfg.memory.ifmapSramKb, 512u);
    EXPECT_TRUE(cfg.dram.enabled);
    EXPECT_EQ(cfg.dram.tech, "HBM2");
    EXPECT_EQ(cfg.dram.channels, 4u);
    EXPECT_EQ(cfg.dram.readQueueSize, 32u);
    EXPECT_TRUE(cfg.layout.enabled);
    EXPECT_EQ(cfg.layout.banks, 8u);
    EXPECT_TRUE(cfg.energy.enabled);
    EXPECT_EQ(cfg.energy.rowSize, 16u);
}

TEST(SimConfig, RejectsRemovedMulticoreKeys)
{
    // [multicore] Engine/Jobs picked a parallel co-step engine that no
    // longer exists; a config that still sets them must fail at its
    // line rather than be silently ignored.
    expectFatalContaining(
        [] {
            SimConfig::fromIni(IniFile::parseString(
                "[general]\nrun_name = x\n[multicore]\nEngine = serial\n",
                "old.cfg"));
        },
        "old.cfg:4: multicore.Engine");
    expectFatalContaining(
        [] {
            SimConfig::fromIni(IniFile::parseString(
                "[multicore]\nJobs = 4\n", "old.cfg"));
        },
        "multi-core co-stepping is serial");
}

TEST(SimConfig, RejectsRemovedDramEngineKey)
{
    // [memory] DramEngine picked a stepped reference controller that
    // no longer exists.
    expectFatalContaining(
        [] {
            SimConfig::fromIni(IniFile::parseString(
                "[memory]\nDramModel = true\nDramEngine = eventskip\n",
                "old.cfg"));
        },
        "old.cfg:3: memory.DramEngine: 'eventskip' is no longer "
        "accepted");
}

TEST(SimConfig, RejectsOversizedBankSize)
{
    // The trace counter keeps 4 x 32 x BankSize tracker rows: a huge
    // value must fail by name, not as std::bad_alloc at the first layer.
    expectFatalContaining(
        [] {
            SimConfig::fromIni(IniFile::parseString(
                "[energy]\nEnergyModel = true\nBankSize = 4000000000\n",
                "big.cfg"));
        },
        "big.cfg:3: energy.BankSize: '4000000000' exceeds the maximum "
        "of 1024");
    const SimConfig at_bound = SimConfig::fromIni(IniFile::parseString(
        "[energy]\nBankSize = 1024\n"));
    EXPECT_EQ(at_bound.energy.bankSize, EnergyConfig::kMaxBankSize);

    // Configs built in code hit the same bound in validate().
    SimConfig cfg;
    cfg.energy.enabled = true;
    cfg.energy.bankSize = EnergyConfig::kMaxBankSize;
    cfg.validate();
    cfg.energy.bankSize = EnergyConfig::kMaxBankSize + 1;
    expectFatalContaining([&] { cfg.validate(); },
                          "BankSize 1025 exceeds the maximum of 1024");
}

TEST(SimConfig, RejectsUnknownEnumValuesWithFileAndLine)
{
    // These used to escape fromIni as std::invalid_argument (aborting
    // the CLI with no location) or, for mode, silently run trace mode.
    const auto parse = [](const char* text) {
        SimConfig::fromIni(IniFile::parseString(text, "bad.cfg"));
    };
    expectFatalContaining(
        [&] { parse("[architecture]\nArrayHeight = 8\nDataflow = zz\n"); },
        "bad.cfg:3: architecture.Dataflow: 'zz' is not a dataflow");
    expectFatalContaining(
        [&] { parse("[sparsity]\nSparseRep = nope\n"); },
        "bad.cfg:2: sparsity.SparseRep: 'nope' is not a sparse "
        "representation");
    expectFatalContaining(
        [&] { parse("[general]\nmode = analyticl\n"); },
        "bad.cfg:2: general.mode: 'analyticl' is not a mode");
    EXPECT_EQ(SimConfig::fromIni(IniFile::parseString(
                                     "[general]\nmode = Trace\n"))
                  .mode,
              SimMode::Trace);
}

TEST(SimConfig, RejectsUnknownKeysWithFileAndLine)
{
    // Misspelled keys and sections used to be skipped silently, so the
    // run went ahead on the defaults.
    const auto parse = [](const char* text) {
        SimConfig::fromIni(IniFile::parseString(text, "bad.cfg"));
    };
    expectFatalContaining(
        [&] { parse("[architecture]\nArrayHeight = 8\nBurstWord = 16\n"); },
        "bad.cfg:3: architecture.BurstWord: unknown key");
    expectFatalContaining(
        [&] { parse("[memory]\nDramModle = true\n"); },
        "bad.cfg:2: memory.DramModle: unknown key");
    expectFatalContaining(
        [&] { parse("; typo\n[archtecture]\nArrayHeight = 8\n"); },
        "bad.cfg:3: archtecture.ArrayHeight: unknown key");
    // Matching stays case- and underscore-insensitive.
    EXPECT_EQ(SimConfig::fromIni(IniFile::parseString(
                                     "[ARCHITECTURE]\narray_height = 8\n"))
                  .arrayRows,
              8u);
}

TEST(SimConfig, RejectsOutOfBoundValuesWithFileAndLine)
{
    const auto parse = [](const char* text) {
        return SimConfig::fromIni(IniFile::parseString(text, "bad.cfg"));
    };
    expectFatalContaining(
        [&] { parse("[architecture]\nArrayHeight = 0\n"); },
        "bad.cfg:2: architecture.ArrayHeight: '0' must be non-zero");
    expectFatalContaining(
        [&] { parse("[memory]\nDramModel = true\nChannels = 0\n"); },
        "bad.cfg:3: memory.Channels: '0' must be non-zero");
    expectFatalContaining(
        [&] { parse("[energy]\nEnergyModel = on\nFrequencyGhz = -1\n"); },
        "bad.cfg:3: energy.FrequencyGhz: '-1' must be positive");
    // A bound gated by a feature switch holds only while it is on.
    EXPECT_EQ(parse("[memory]\nChannels = 0\n").dram.channels, 0u);

    // Configs built in code hit the same table in validate().
    SimConfig cfg;
    cfg.memory.wordBytes = 0;
    expectFatalContaining([&] { cfg.validate(); },
                          "architecture.WordBytes 0 must be non-zero");
}

TEST(SparseRatio, Parsing)
{
    EXPECT_EQ(parseSparsityRatio("2:4"), std::make_pair(2u, 4u));
    EXPECT_EQ(parseSparsityRatio(""), std::make_pair(0u, 0u));
    EXPECT_EQ(parseSparsityRatio("dense"), std::make_pair(0u, 0u));
    EXPECT_THROW(parseSparsityRatio("4:2"), FatalError);
    EXPECT_THROW(parseSparsityRatio("abc"), FatalError);
}

TEST(Topology, ParseConvFormat)
{
    std::istringstream in(
        "Layer name, IFMAP Height, IFMAP Width, Filter Height, "
        "Filter Width, Channels, Num Filter, Strides, SparsitySupport\n"
        "conv1, 224, 224, 7, 7, 3, 64, 2, 2:4\n"
        "conv2, 56, 56, 3, 3, 64, 64, 1,\n");
    Topology topo = Topology::parseCsv(in, "t");
    ASSERT_EQ(topo.layers.size(), 2u);
    EXPECT_EQ(topo.layers[0].name, "conv1");
    EXPECT_EQ(topo.layers[0].sparseN, 2u);
    EXPECT_EQ(topo.layers[0].sparseM, 4u);
    EXPECT_TRUE(topo.layers[0].isSparse());
    EXPECT_FALSE(topo.layers[1].isSparse());
    EXPECT_GT(topo.totalMacs(), 0u);
}

TEST(Topology, ParseGemmFormat)
{
    std::istringstream in(
        "Layer, M, N, K\n"
        "fc1, 197, 3072, 768\n");
    Topology topo = Topology::parseCsv(in, "g");
    ASSERT_EQ(topo.layers.size(), 1u);
    EXPECT_EQ(topo.layers[0].type, LayerType::Gemm);
    EXPECT_EQ(topo.layers[0].gemmDims.n, 3072u);
}

TEST(Topology, EmptyIsFatal)
{
    std::istringstream in("Layer, M, N, K\n");
    EXPECT_THROW(Topology::parseCsv(in, "e"), FatalError);
}

TEST(Workloads, AllNamesResolve)
{
    for (const auto& name : workloads::names()) {
        Topology topo = workloads::byName(name);
        EXPECT_FALSE(topo.layers.empty()) << name;
        EXPECT_GT(topo.totalMacs(), 0u) << name;
    }
    EXPECT_THROW(workloads::byName("bogus"), FatalError);
}

TEST(Workloads, ResNet18Shape)
{
    Topology topo = workloads::resnet18();
    EXPECT_EQ(topo.layers.size(), 21u); // 20 convs + fc
    // Roughly 1.8 GMACs for ResNet-18 at 224x224.
    EXPECT_GT(topo.totalMacs(), 1'000'000'000u);
    EXPECT_LT(topo.totalMacs(), 3'000'000'000u);
}

TEST(Workloads, ResNet50LargerThanResNet18)
{
    EXPECT_GT(workloads::resnet50().totalMacs(),
              workloads::resnet18().totalMacs());
}

TEST(Workloads, VitVariantsOrdered)
{
    const auto s = workloads::vit(workloads::VitVariant::Small);
    const auto b = workloads::vit(workloads::VitVariant::Base);
    const auto l = workloads::vit(workloads::VitVariant::Large);
    EXPECT_LT(s.totalMacs(), b.totalMacs());
    EXPECT_LT(b.totalMacs(), l.totalMacs());
}

TEST(Workloads, VitFeedForwardSubset)
{
    const auto ff = workloads::vitFeedForward(
        workloads::VitVariant::Base);
    ASSERT_EQ(ff.layers.size(), 2u);
    for (const auto& layer : ff.layers)
        EXPECT_EQ(layer.repetitions, 12u);
}

TEST(Workloads, UniformSparsityAnnotation)
{
    auto topo = workloads::withUniformSparsity(workloads::resnet18(), 2,
                                               4);
    for (const auto& layer : topo.layers) {
        EXPECT_EQ(layer.sparseN, 2u);
        EXPECT_EQ(layer.sparseM, 4u);
    }
}

TEST(Workloads, ResNet18Prefix)
{
    auto topo = workloads::resnet18Prefix(6);
    EXPECT_EQ(topo.layers.size(), 6u);
}

TEST(Rng, DeterministicAndBounded)
{
    Rng a(123), b(123), c(321);
    bool diverged = false;
    for (int i = 0; i < 1000; ++i) {
        const auto va = a.next();
        EXPECT_EQ(va, b.next());
        if (va != c.next())
            diverged = true;
    }
    EXPECT_TRUE(diverged);
    Rng r(7);
    for (int i = 0; i < 1000; ++i) {
        EXPECT_LT(r.below(17), 17u);
        const auto v = r.range(3, 9);
        EXPECT_GE(v, 3u);
        EXPECT_LE(v, 9u);
        const double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
    }
}

TEST(Log, FormatAndFatal)
{
    EXPECT_EQ(format("x=%d y=%s", 3, "z"), "x=3 y=z");
    EXPECT_THROW(fatal("boom %d", 1), FatalError);
}

TEST(DataFiles, ShippedConfigsLoad)
{
    const std::string dir = SCALESIM_SOURCE_DIR "/configs/";
    const SimConfig example = SimConfig::load(dir
                                              + "scale_example.cfg");
    EXPECT_EQ(example.runName, "scale_example");
    EXPECT_TRUE(example.sparsity.enabled);
    EXPECT_TRUE(example.dram.enabled);
    EXPECT_TRUE(example.layout.enabled);
    EXPECT_TRUE(example.energy.enabled);
    EXPECT_EQ(example.dram.channels, 2u);

    const SimConfig tpu = SimConfig::load(dir + "google_tpu_v1.cfg");
    EXPECT_EQ(tpu.arrayRows, 256u);
    EXPECT_EQ(tpu.dataflow, Dataflow::WeightStationary);

    const SimConfig eyeriss = SimConfig::load(dir + "eyeriss.cfg");
    EXPECT_EQ(eyeriss.arrayRows, 12u);
    EXPECT_EQ(eyeriss.arrayCols, 14u);
}

TEST(DataFiles, ShippedTopologiesLoad)
{
    const std::string dir = SCALESIM_SOURCE_DIR "/topologies/";
    const Topology conv = Topology::load(dir + "conv_example.csv");
    ASSERT_EQ(conv.layers.size(), 3u);
    EXPECT_EQ(conv.layers[1].sparseN, 2u);
    EXPECT_EQ(conv.layers[1].sparseM, 4u);
    EXPECT_EQ(conv.layers[1].stride, 2u);
    EXPECT_EQ(conv.name, "conv_example");

    const Topology gemm = Topology::load(dir + "gemm_example.csv");
    ASSERT_EQ(gemm.layers.size(), 3u);
    EXPECT_EQ(gemm.layers[2].sparseM, 8u);
    EXPECT_EQ(gemm.layers[0].gemmDims.n, 2304u);
}

TEST(VectorTail, RoundTripAndParsing)
{
    for (auto tail : {VectorTail::None, VectorTail::Activation,
                      VectorTail::Softmax, VectorTail::Quantize}) {
        EXPECT_EQ(vectorTailFromString(toString(tail)), tail);
    }
    EXPECT_EQ(vectorTailFromString("relu"), VectorTail::Activation);
    EXPECT_EQ(vectorTailFromString(""), VectorTail::None);
    EXPECT_THROW(vectorTailFromString("tanhx"), std::invalid_argument);
}

TEST(Topology, VectorTailColumn)
{
    std::istringstream in(
        "Layer, M, N, K, VectorTail\n"
        "scores, 197, 197, 64, softmax\n"
        "fc, 197, 768, 3072,\n");
    Topology topo = Topology::parseCsv(in, "t");
    EXPECT_EQ(topo.layers[0].tail, VectorTail::Softmax);
    EXPECT_EQ(topo.layers[1].tail, VectorTail::None);
}

TEST(Workloads, VitCarriesVectorTails)
{
    const Topology topo = workloads::vit(workloads::VitVariant::Base);
    bool softmax_found = false;
    bool activation_found = false;
    for (const auto& layer : topo.layers) {
        if (layer.tail == VectorTail::Softmax)
            softmax_found = true;
        if (layer.tail == VectorTail::Activation)
            activation_found = true;
    }
    EXPECT_TRUE(softmax_found);
    EXPECT_TRUE(activation_found);
}

TEST(Workloads, MobileNetDepthwiseStructure)
{
    const Topology topo = workloads::mobilenetV1();
    // 1 stem + 13 dw/pw pairs + fc.
    EXPECT_EQ(topo.layers.size(), 1u + 26u + 1u);
    // MobileNetV1 is ~0.57 GMACs.
    EXPECT_GT(topo.totalMacs(), 400'000'000u);
    EXPECT_LT(topo.totalMacs(), 800'000'000u);
    // Depthwise layers are per-channel planes.
    const auto& dw1 = topo.layers[1];
    EXPECT_EQ(dw1.channels, 1u);
    EXPECT_EQ(dw1.numFilters, 1u);
    EXPECT_EQ(dw1.repetitions, 32u);
}

TEST(Batch, ScalesGemmMOnly)
{
    LayerSpec gemm = LayerSpec::gemm("g", 100, 50, 25).withBatch(4);
    EXPECT_EQ(gemm.toGemm().m, 400u);
    EXPECT_EQ(gemm.toGemm().n, 50u);
    EXPECT_EQ(gemm.toGemm().k, 25u);
    LayerSpec conv = LayerSpec::conv("c", 10, 10, 3, 3, 4, 8, 1)
                         .withBatch(3);
    EXPECT_EQ(conv.toGemm().m, 8u * 8u * 3u);
    EXPECT_EQ(conv.macs(), 3u * 64u * 36u * 8u);
}

TEST(Batch, AmortizesWeightStationaryLoads)
{
    // WS fold count is batch-independent (K x N tiles); only the
    // temporal extent grows, so batch-b cycles < b x batch-1 cycles.
    const LayerSpec layer = LayerSpec::gemm("g", 64, 128, 256);
    LayerSpec batched = layer;
    batched.batch = 8;
    const systolic::FoldGrid one(layer.toGemm(),
                                 Dataflow::WeightStationary, 32, 32);
    const systolic::FoldGrid eight(batched.toGemm(),
                                   Dataflow::WeightStationary, 32, 32);
    EXPECT_EQ(one.numFolds(), eight.numFolds());
    EXPECT_LT(eight.totalCycles(), 8 * one.totalCycles());
}

TEST(Batch, WorkloadHelperAnnotatesEveryLayer)
{
    const Topology topo = workloads::withBatch(workloads::resnet18(),
                                               4);
    for (const auto& layer : topo.layers)
        EXPECT_EQ(layer.batch, 4u);
    EXPECT_EQ(topo.totalMacs(),
              4 * workloads::resnet18().totalMacs());
}
