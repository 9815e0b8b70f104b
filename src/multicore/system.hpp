/**
 * @file
 * Multi-core system model (paper §III): a Pr x Pc grid of (possibly
 * heterogeneous) tensor cores behind a shared L2 scratchpad, with an
 * NoP (network-on-package) latency profile per core and optional
 * non-uniform workload partitioning that gives slower-to-reach cores
 * less work (§III-D, Simba-style).
 */

#ifndef SCALESIM_MULTICORE_SYSTEM_HH
#define SCALESIM_MULTICORE_SYSTEM_HH

#include <vector>

#include "multicore/partition.hpp"
#include "multicore/tensor_core.hpp"

namespace scalesim::multicore
{

/** Network-on-package model (§III-D). */
struct NopConfig
{
    /** Latency per hop, core cycles. */
    Cycle latencyPerHop = 20;
    /** NoP link bandwidth in words per cycle. */
    double wordsPerCycle = 16.0;
    /**
     * Hop count from main memory per core, row-major over the
     * (Pr, Pc) grid. Empty means one hop everywhere (uniform); a
     * non-empty vector must have exactly pr*pc entries
     * (MultiCoreSimulator validates at construction).
     */
    std::vector<std::uint32_t> hops;

    std::uint32_t
    hopsFor(std::uint64_t core_index) const
    {
        if (hops.empty())
            return 1;
        return hops[core_index];
    }
};

/** Whole-system configuration. */
struct MultiCoreConfig
{
    /** Core configs, row-major over the grid; size must be pr*pc. */
    std::vector<TensorCoreConfig> cores;
    std::uint64_t pr = 1;
    std::uint64_t pc = 1;
    PartitionScheme scheme = PartitionScheme::Spatial;
    NopConfig nop;
    /** Rebalance row shares against per-core latency (§III-D). */
    bool nonUniform = false;

    /** Pr x Pc copies of one core type. */
    static MultiCoreConfig homogeneous(const TensorCoreConfig& core,
                                       std::uint64_t pr,
                                       std::uint64_t pc,
                                       PartitionScheme scheme
                                       = PartitionScheme::Spatial);
};

/** Per-core outcome of one layer. */
struct CoreResult
{
    Cycle computeCycles = 0;
    Cycle simdCycles = 0;
    Cycle nopCycles = 0;
    Cycle total() const { return computeCycles + simdCycles + nopCycles; }
    /** Rows of the partitioned dimension assigned to this core. */
    std::uint64_t rowShare = 0;
    std::uint64_t colShare = 0;
};

/** System-level outcome of one layer. */
struct MultiCoreResult
{
    /** Slowest core's total = the layer latency. */
    Cycle makespan = 0;
    std::vector<CoreResult> perCore;

    /** Sum of per-core partitions if each core kept a private copy. */
    std::uint64_t l1FootprintWords = 0;
    /** Shared-L2 footprint after deduplication (§III-B). */
    std::uint64_t l2FootprintWords = 0;
    /** Words saved by the shared L2. */
    std::uint64_t
    dedupSavedWords() const
    {
        return l1FootprintWords > l2FootprintWords
            ? l1FootprintWords - l2FootprintWords : 0;
    }
    /** max(core total) / mean(core total): 1.0 = perfectly balanced. */
    double imbalance = 1.0;
};

/** Analytical multi-core simulator. */
class MultiCoreSimulator
{
  public:
    explicit MultiCoreSimulator(const MultiCoreConfig& cfg);

    const MultiCoreConfig& config() const { return cfg_; }

    /** Run one GEMM with an optional vector-unit tail. */
    MultiCoreResult runGemm(const GemmDims& gemm, Dataflow df,
                            VectorOp tail = VectorOp::None) const;

    /** Run one layer (lowered to GEMM). */
    MultiCoreResult runLayer(const LayerSpec& layer, Dataflow df,
                             VectorOp tail = VectorOp::None) const;

  private:
    /** Analytical time of one core given its partition shares. */
    Cycle coreTime(std::uint64_t core_index, std::uint64_t sr_part,
                   std::uint64_t sc_part, std::uint64_t t_part,
                   std::uint64_t tail_elements, VectorOp tail,
                   CoreResult* detail = nullptr) const;

    MultiCoreConfig cfg_;
};

} // namespace scalesim::multicore

#endif // SCALESIM_MULTICORE_SYSTEM_HH
