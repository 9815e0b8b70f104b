/**
 * @file
 * Reproduces Fig. 7: per-layer memory storage of ResNet-18 filters for
 * dense, 1:4, 2:4 and 3:4 sparsity under Blocked ELLPACK (values +
 * metadata), as written to SPARSE_REPORT.csv.
 */

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/workloads.hpp"
#include "sparse/formats.hpp"

using namespace scalesim;
using namespace scalesim::sparse;

int
main(int argc, char** argv)
{
    benchutil::noArgs(argc, argv);
    setQuiet(true);
    std::printf("=== Fig. 7: ResNet-18 filter storage (MB), Blocked "
                "ELLPACK, data+metadata ===\n");
    const Topology topo = workloads::resnet18();
    benchutil::Table table({10, 10, 12, 12, 12, 12});
    table.row({"layer", "K", "dense", "1:4", "2:4", "3:4"});
    table.rule();
    double totals[4] = {};
    for (const auto& layer : topo.layers) {
        const GemmDims gemm = layer.toGemm();
        double mb[4];
        const auto dense_pattern = SparsityPattern::dense(gemm.k);
        mb[0] = storageFor(SparseRep::Dense, dense_pattern, gemm.n, 8)
                    .totalMB();
        for (std::uint32_t n = 1; n <= 3; ++n) {
            const auto pattern = SparsityPattern::layerWise(gemm.k, n,
                                                            4);
            mb[n] = storageFor(SparseRep::EllpackBlock, pattern, gemm.n,
                               8).totalMB()
                * layer.repetitions;
        }
        mb[0] *= layer.repetitions;
        for (int i = 0; i < 4; ++i)
            totals[i] += mb[i];
        table.row({layer.name, benchutil::num(gemm.k),
                   benchutil::fmt("%.3f", mb[0]),
                   benchutil::fmt("%.3f", mb[1]),
                   benchutil::fmt("%.3f", mb[2]),
                   benchutil::fmt("%.3f", mb[3])});
    }
    table.rule();
    table.row({"TOTAL", "", benchutil::fmt("%.3f", totals[0]),
               benchutil::fmt("%.3f", totals[1]),
               benchutil::fmt("%.3f", totals[2]),
               benchutil::fmt("%.3f", totals[3])});
    std::printf("shape check (storage grows with N of N:4, all < "
                "dense): %s\n",
                (totals[1] < totals[2] && totals[2] < totals[3]
                 && totals[3] < totals[0])
                    ? "yes" : "NO");
    return 0;
}
