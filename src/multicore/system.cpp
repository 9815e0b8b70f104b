#include "multicore/system.hpp"

#include <algorithm>
#include <numeric>

#include "common/log.hpp"

namespace scalesim::multicore
{

MultiCoreConfig
MultiCoreConfig::homogeneous(const TensorCoreConfig& core,
                             std::uint64_t pr, std::uint64_t pc,
                             PartitionScheme scheme)
{
    MultiCoreConfig cfg;
    cfg.pr = pr;
    cfg.pc = pc;
    cfg.scheme = scheme;
    cfg.cores.assign(pr * pc, core);
    return cfg;
}

MultiCoreSimulator::MultiCoreSimulator(const MultiCoreConfig& cfg)
    : cfg_(cfg)
{
    if (cfg_.pr == 0 || cfg_.pc == 0)
        fatal("multi-core grid must be non-zero");
    if (cfg_.cores.size() != cfg_.pr * cfg_.pc)
        fatal("expected %llu core configs, got %zu",
              static_cast<unsigned long long>(cfg_.pr * cfg_.pc),
              cfg_.cores.size());
    // A wrong-sized hop profile used to wrap silently via modulo,
    // mis-assigning NoP latencies; reject it up front instead.
    if (!cfg_.nop.hops.empty()
        && cfg_.nop.hops.size() != cfg_.pr * cfg_.pc)
        fatal("NoP hop profile has %zu entries for a %llu-core grid "
              "(must be empty or pr*pc)",
              cfg_.nop.hops.size(),
              static_cast<unsigned long long>(cfg_.pr * cfg_.pc));
}

namespace
{

/** Balanced integer split of `total` into `parts` shares. */
std::vector<std::uint64_t>
balancedSplit(std::uint64_t total, std::uint64_t parts)
{
    std::vector<std::uint64_t> shares(parts, total / parts);
    std::uint64_t rem = total % parts;
    for (std::uint64_t i = 0; i < rem; ++i)
        ++shares[i];
    return shares;
}

} // namespace

Cycle
MultiCoreSimulator::coreTime(std::uint64_t core_index,
                             std::uint64_t sr_part,
                             std::uint64_t sc_part,
                             std::uint64_t t_part,
                             std::uint64_t tail_elements,
                             VectorOp tail, CoreResult* detail) const
{
    const TensorCoreConfig& core = cfg_.cores[core_index];
    if (sr_part == 0 || sc_part == 0 || t_part == 0) {
        if (detail)
            *detail = {};
        return 0;
    }
    const std::uint64_t rows = core.arrayRows;
    const std::uint64_t cols = core.arrayCols;
    const Cycle fold_cycles = 2 * rows + cols + t_part - 2;
    const std::uint64_t folds = ceilDiv(sr_part, rows)
        * ceilDiv(sc_part, cols);
    const Cycle compute = fold_cycles * folds;
    const Cycle simd = simdCycles(core.simd, tail, tail_elements);

    // NoP: fixed hop latency plus streaming the core's partitions over
    // its hop path (§III-D).
    const std::uint32_t hops = cfg_.nop.hopsFor(core_index);
    const std::uint64_t partition_words = sr_part * t_part
        + sc_part * t_part + sr_part * sc_part;
    const Cycle nop = static_cast<Cycle>(hops) * cfg_.nop.latencyPerHop
        + static_cast<Cycle>(static_cast<double>(partition_words) * hops
                             / cfg_.nop.wordsPerCycle);
    if (detail) {
        detail->computeCycles = compute;
        detail->simdCycles = simd;
        detail->nopCycles = nop;
        detail->rowShare = sr_part;
        detail->colShare = sc_part;
    }
    return compute + simd + nop;
}

MultiCoreResult
MultiCoreSimulator::runGemm(const GemmDims& gemm, Dataflow df,
                            VectorOp tail) const
{
    const MappedDims mapped = systolic::mapGemmConventional(gemm, df);

    // Which mapped dimension each grid axis splits (§III-A).
    std::uint64_t pr_dim = mapped.sr;
    std::uint64_t pc_dim = mapped.sc;
    switch (cfg_.scheme) {
      case PartitionScheme::Spatial:
        break;
      case PartitionScheme::SpatioTemporal1:
        pc_dim = mapped.t;
        break;
      case PartitionScheme::SpatioTemporal2:
        pr_dim = mapped.t;
        pc_dim = mapped.sc;
        break;
    }

    std::vector<std::uint64_t> pr_shares = balancedSplit(pr_dim,
                                                         cfg_.pr);
    const std::vector<std::uint64_t> pc_shares = balancedSplit(pc_dim,
                                                               cfg_.pc);
    const std::uint64_t tail_elements = ceilDiv(gemm.m * gemm.n,
                                                cfg_.pr * cfg_.pc);

    auto assemble = [&](const std::vector<std::uint64_t>& row_shares,
                        std::vector<CoreResult>* out) {
        Cycle makespan = 0;
        for (std::uint64_t i = 0; i < cfg_.pr; ++i) {
            for (std::uint64_t j = 0; j < cfg_.pc; ++j) {
                std::uint64_t sr_part = mapped.sr;
                std::uint64_t sc_part = mapped.sc;
                std::uint64_t t_part = mapped.t;
                switch (cfg_.scheme) {
                  case PartitionScheme::Spatial:
                    sr_part = row_shares[i];
                    sc_part = pc_shares[j];
                    break;
                  case PartitionScheme::SpatioTemporal1:
                    sr_part = row_shares[i];
                    t_part = pc_shares[j];
                    break;
                  case PartitionScheme::SpatioTemporal2:
                    t_part = row_shares[i];
                    sc_part = pc_shares[j];
                    break;
                }
                const std::uint64_t idx = i * cfg_.pc + j;
                CoreResult detail;
                const Cycle t = coreTime(idx, sr_part, sc_part, t_part,
                                         tail_elements, tail, &detail);
                makespan = std::max(makespan, t);
                if (out)
                    (*out)[idx] = detail;
            }
        }
        return makespan;
    };

    if (cfg_.nonUniform && cfg_.pr > 1) {
        // Greedy rebalance: shift one array-height of work from the
        // slowest row group to the fastest while the makespan improves.
        const std::uint64_t grain = std::max<std::uint64_t>(
            1, cfg_.cores.front().arrayRows);
        Cycle best = assemble(pr_shares, nullptr);
        for (int iter = 0; iter < 256; ++iter) {
            // Row-group times under the current shares.
            std::vector<CoreResult> scratch(cfg_.cores.size());
            assemble(pr_shares, &scratch);
            std::uint64_t slow = 0;
            std::uint64_t fast = 0;
            Cycle slow_t = 0;
            Cycle fast_t = ~static_cast<Cycle>(0);
            for (std::uint64_t i = 0; i < cfg_.pr; ++i) {
                Cycle group = 0;
                for (std::uint64_t j = 0; j < cfg_.pc; ++j)
                    group = std::max(group,
                                     scratch[i * cfg_.pc + j].total());
                if (group > slow_t) {
                    slow_t = group;
                    slow = i;
                }
                if (group < fast_t) {
                    fast_t = group;
                    fast = i;
                }
            }
            if (slow == fast || pr_shares[slow] <= grain)
                break;
            auto trial = pr_shares;
            const std::uint64_t moved = std::min(grain,
                                                 trial[slow] - 1);
            trial[slow] -= moved;
            trial[fast] += moved;
            const Cycle t = assemble(trial, nullptr);
            if (t >= best)
                break;
            best = t;
            pr_shares = std::move(trial);
        }
    }

    MultiCoreResult result;
    result.perCore.resize(cfg_.cores.size());
    result.makespan = assemble(pr_shares, &result.perCore);

    double sum = 0.0;
    for (const auto& core : result.perCore)
        sum += static_cast<double>(core.total());
    const double mean = sum / static_cast<double>(result.perCore.size());
    result.imbalance = mean > 0.0
        ? static_cast<double>(result.makespan) / mean : 1.0;

    // Footprints via the uniform partition formulas (§III-B).
    const PartitionEval eval = evaluatePartition(
        gemm, df, cfg_.cores.front().arrayRows,
        cfg_.cores.front().arrayCols, cfg_.pr, cfg_.pc, cfg_.scheme);
    result.l1FootprintWords = eval.footprintWords;
    result.l2FootprintWords = eval.l2FootprintWords;
    return result;
}

MultiCoreResult
MultiCoreSimulator::runLayer(const LayerSpec& layer, Dataflow df,
                             VectorOp tail) const
{
    return runGemm(layer.toGemm(), df, tail);
}

} // namespace scalesim::multicore
