/**
 * @file
 * Reproduces Fig. 3 of the paper: compute cycles vs memory footprint
 * trade-off for spatial and the two spatio-temporal partitioning
 * schemes (Eqs. 1-3) on 27 GEMM workloads (M, N, K from {1000, 5000,
 * 10000}), array sizes {8, 16, 32}^2 and core counts {16, 32, 64}.
 *
 * (a) compute-optimized Pr x Pc per scheme: report the footprint the
 *     compute-optimal choice pays — spatio-temporal should win (be
 *     smaller) on a sizable fraction of configurations.
 * (b) memory-footprint-optimized Pr x Pc: spatial should win on most.
 */

#include "bench_util.hpp"
#include "common/log.hpp"
#include "multicore/partition.hpp"

using namespace scalesim;
using namespace scalesim::multicore;

int
main(int argc, char** argv)
{
    benchutil::noArgs(argc, argv);
    setQuiet(true);
    std::printf("=== Fig. 3: spatial vs spatio-temporal partitioning "
                "===\n");
    const std::uint64_t dims[] = {1000, 5000, 10000};
    const std::uint32_t arrays[] = {8, 16, 32};
    const std::uint64_t core_counts[] = {16, 32, 64};
    const PartitionScheme schemes[] = {
        PartitionScheme::Spatial, PartitionScheme::SpatioTemporal1,
        PartitionScheme::SpatioTemporal2};

    std::uint64_t configs = 0;
    std::uint64_t st_wins_compute_opt = 0; // Fig. 3a metric
    std::uint64_t spatial_wins_mem_opt = 0; // Fig. 3b metric

    benchutil::Table table({26, 10, 14, 14, 14, 14});
    table.row({"workload(M,N,K)/arr/cores", "scheme", "cyc(c-opt)",
               "MB(c-opt)", "cyc(m-opt)", "MB(m-opt)"});
    table.rule();

    for (std::uint64_t m : dims) {
        for (std::uint64_t n : dims) {
            for (std::uint64_t k : dims) {
                const GemmDims gemm{m, n, k};
                for (std::uint32_t arr : arrays) {
                    for (std::uint64_t cores : core_counts) {
                        ++configs;
                        PartitionEval copt[3], mopt[3];
                        for (int s = 0; s < 3; ++s) {
                            const auto evals = enumeratePartitions(
                                gemm, Dataflow::OutputStationary, arr,
                                arr, cores, schemes[s]);
                            copt[s] = bestByCycles(evals);
                            mopt[s] = bestByFootprint(evals);
                        }
                        // Fig. 3a: among the compute-optimal points of
                        // the three schemes, does a spatio-temporal one
                        // offer the least footprint?
                        std::uint64_t best_fp = copt[0].footprintWords;
                        int best_scheme = 0;
                        for (int s = 1; s < 3; ++s) {
                            if (copt[s].cycles
                                    <= copt[best_scheme].cycles
                                && copt[s].footprintWords < best_fp) {
                                best_fp = copt[s].footprintWords;
                                best_scheme = s;
                            }
                        }
                        if (best_scheme != 0)
                            ++st_wins_compute_opt;
                        // Fig. 3b: among footprint-optimal points, does
                        // spatial have the fewest cycles?
                        bool spatial_best = true;
                        for (int s = 1; s < 3; ++s) {
                            if (mopt[s].footprintWords
                                        <= mopt[0].footprintWords
                                    && mopt[s].cycles < mopt[0].cycles)
                                spatial_best = false;
                        }
                        if (spatial_best)
                            ++spatial_wins_mem_opt;

                        // Print a representative slice to keep the
                        // output readable.
                        const bool print = m == 10000 && n == 5000
                            && k == 1000 && arr == 16;
                        if (print) {
                            for (int s = 0; s < 3; ++s) {
                                table.row({format(
                                               "(%llu,%llu,%llu)/%u/%llu",
                                               static_cast<unsigned long long>(m),
                                               static_cast<unsigned long long>(n),
                                               static_cast<unsigned long long>(k),
                                               arr,
                                               static_cast<unsigned long long>(
                                                   cores)),
                                           toString(schemes[s]).substr(
                                               0, 9),
                                           benchutil::num(
                                               copt[s].cycles),
                                           benchutil::fmt(
                                               "%.1f",
                                               copt[s].footprintWords
                                                   / 1048576.0),
                                           benchutil::num(
                                               mopt[s].cycles),
                                           benchutil::fmt(
                                               "%.1f",
                                               mopt[s].footprintWords
                                                   / 1048576.0)});
                            }
                        }
                    }
                }
            }
        }
    }
    table.rule();
    std::printf("configs: %llu\n",
                static_cast<unsigned long long>(configs));
    std::printf("Fig3a: compute-optimal points where a spatio-temporal "
                "scheme strictly reduces footprint: %llu/%llu "
                "(paper: 'multiple examples')\n",
                static_cast<unsigned long long>(st_wins_compute_opt),
                static_cast<unsigned long long>(configs));
    std::printf("Fig3b: footprint-optimal points where spatial is "
                "best: %llu/%llu (paper: 'most cases')\n",
                static_cast<unsigned long long>(spatial_wins_mem_opt),
                static_cast<unsigned long long>(configs));
    return 0;
}
