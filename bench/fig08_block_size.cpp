/**
 * @file
 * Reproduces Fig. 8: compute-cycle variation of the ViT feed-forward
 * layers across systolic array sizes, sparsity ratios and block sizes.
 *
 * Set 1: array sizes 4x4..32x32 with block size M equal to the array
 * dimension, sparsity ratios 1:M .. M:M.
 * Set 2: fixed 32x32 array, block size M in {4, 8, 16, 32} — larger
 * blocks give finer-grained control, and the low-N end of the N:M
 * spectrum performs best.
 */

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/workloads.hpp"
#include "sparse/pattern.hpp"
#include "systolic/mapping.hpp"

using namespace scalesim;

namespace
{

/** Compute cycles of the ViT-base FF layers at N:M sparsity (WS). */
Cycle
ffCycles(std::uint32_t array, std::uint32_t n, std::uint32_t m)
{
    const Topology ff = workloads::vitFeedForward(
        workloads::VitVariant::Base);
    Cycle total = 0;
    for (const auto& layer : ff.layers) {
        GemmDims gemm = layer.toGemm();
        if (n < m) {
            const auto pattern = sparse::SparsityPattern::layerWise(
                gemm.k, n, m);
            gemm.k = pattern.compressedK();
        }
        const systolic::FoldGrid grid(
            gemm, Dataflow::WeightStationary, array, array);
        total += grid.totalCycles() * layer.repetitions;
    }
    return total;
}

} // namespace

int
main(int argc, char** argv)
{
    benchutil::noArgs(argc, argv);
    setQuiet(true);
    std::printf("=== Fig. 8: ViT-base FF compute cycles vs array size, "
                "sparsity ratio, block size ===\n");

    std::printf("--- set 1: block size = array dimension ---\n");
    benchutil::Table t1({10, 8, 14});
    t1.row({"array", "N:M", "cycles"});
    t1.rule();
    for (std::uint32_t arr : {4u, 8u, 16u, 32u}) {
        for (std::uint32_t n = 1; n <= arr; n *= 2) {
            t1.row({format("%ux%u", arr, arr), format("%u:%u", n, arr),
                    benchutil::num(ffCycles(arr, n, arr))});
        }
    }

    std::printf("--- set 2: fixed 32x32 array, block size sweep ---\n");
    benchutil::Table t2({8, 8, 14, 18});
    t2.row({"M", "N", "cycles", "vs dense"});
    t2.rule();
    const Cycle dense = ffCycles(32, 4, 4); // N == M -> dense
    bool finer_helps = true;
    Cycle prev_best = ~static_cast<Cycle>(0);
    for (std::uint32_t m : {4u, 8u, 16u, 32u}) {
        Cycle best = ~static_cast<Cycle>(0);
        for (std::uint32_t n = 1; n <= m; n *= 2) {
            const Cycle c = ffCycles(32, n, m);
            best = std::min(best, c);
            t2.row({benchutil::num(m), benchutil::num(n),
                    benchutil::num(c),
                    benchutil::fmt("%.2fx", static_cast<double>(dense)
                                                / c)});
        }
        // Larger M exposes lower N:M ratios, so the best achievable
        // cycles should not get worse.
        if (best > prev_best)
            finer_helps = false;
        prev_best = best;
    }
    t2.rule();
    std::printf("larger block size -> finer control, best cycles never "
                "worse: %s (paper: 'utilizing the lower spectrum of "
                "N:M leads to better performance')\n",
                finer_helps ? "yes" : "NO");
    return 0;
}
