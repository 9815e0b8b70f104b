/**
 * @file
 * Cache-backed topology/sweep evaluation for the sweep server.
 *
 * The cached runner evaluates every layer **in isolation**: each
 * layer runs on freshly built Simulator components
 * (Simulator::runIsolated), so a layer's result depends only on
 * (layer shape, config) — not on its position in the topology or on
 * DRAM state carried over from earlier layers. That position
 * independence is exactly what makes a per-layer content-addressed
 * cache sound. It is a deliberately different (and documented)
 * semantic from Simulator::run's coupled timeline, where row-buffer
 * and refresh state flows across layer boundaries; sweeps compare
 * design points, and layer-isolated evaluation ranks them identically
 * while letting warm sweeps skip simulation entirely.
 *
 * The cache key is a 64-bit FNV-1a digest over a version tag, every
 * kPayload row of the SimConfig field table (forEachField), and the
 * canonical layer shape. runName, audit, interval sampling, fold-span
 * recording, the layer's display name, and its repetition count are
 * deliberately excluded — they never change one instance's numbers
 * (name/repetitions are patched onto the cached result at hit time).
 * The layer index joins the key only when sparsity is enabled,
 * because SparseLayerModel seeds its per-row pattern with the layer
 * position.
 *
 * Lookup order: a plan pass looks up the first occurrence of each key
 * in layer order and lists the misses (and undecodable payloads); one
 * runIsolated call simulates them through Simulator's two-stage
 * pipeline, inserting each as it finishes; an in-order pass then looks
 * up the repeated keys and assembles the run, each repeat taking its
 * first occurrence's evaluation. With an unlimited budget a fresh
 * cache so sees the hits, misses and inserts of a lookup per layer in
 * order. A byte budget can evict a first occurrence before its repeat
 * is looked up; that repeat misses and its entry is put back, not
 * re-simulated, so a budget never costs more simulation than in-order
 * lookups would.
 *
 * Byte-identity contract: for a fixed config and topology, the runner
 * produces bit-identical RunResults (stats dumps included) whether
 * every layer was simulated, decoded from cache, or any mix — the
 * cache payload stores doubles as bit patterns and the per-layer
 * component stats registry verbatim.
 */

#ifndef SCALESIM_SERVE_CACHED_RUNNER_HH
#define SCALESIM_SERVE_CACHED_RUNNER_HH

#include "core/dse.hpp"
#include "serve/cache.hpp"

namespace scalesim::serve
{

/** Content-address of one layer evaluation; see file comment. */
std::uint64_t layerCacheKey(const SimConfig& cfg, const LayerSpec& layer,
                            std::uint64_t layer_index);

/**
 * Evaluate a topology with layer-isolated semantics, consulting (and
 * filling) `cache` when non-null. Audit, interval sampling, and
 * fold-span recording are incompatible with cached evaluation; those
 * configs fall back to the standard coupled Simulator::run (cache
 * neither consulted nor filled) so their outputs stay complete.
 */
core::RunResult runTopologyCached(const SimConfig& cfg,
                                  const Topology& topology,
                                  LayerResultCache* cache);

/**
 * runSweepDetailed with layer-isolated semantics and a shared cache:
 * candidates run on `sweep.jobs` workers, results land at their
 * sequential-order index, and every worker consults the same
 * thread-safe cache. Output is byte-identical for any jobs value and
 * for any cache state (cold, warm, partial).
 */
std::vector<core::DseDetailedPoint>
runSweepCachedDetailed(const core::DseSweep& sweep,
                       const Topology& topology,
                       LayerResultCache* cache);

} // namespace scalesim::serve

#endif // SCALESIM_SERVE_CACHED_RUNNER_HH
