/**
 * @file
 * Simulator-wide invariant auditor: a registry of named cross-module
 * conservation laws that tie the counters the observability layer
 * reports back to what the engines actually did, audited after every
 * layer and at end of run. Unlike the SIM_CHECK contract macros
 * (contract.hpp), the auditor is runtime-gated (`--audit` /
 * SimConfig::audit), never aborts, and collects every violation into a
 * report that flows out through the stats registry (`sim.audit.*`) and
 * the JSON reporters.
 *
 * The laws (names are stable identifiers used in stats, tests, and
 * DESIGN.md):
 *
 *   spad.stallAccounting     prefetchMiss + drain + bandwidth stall
 *                            buckets sum exactly to stallCycles, and
 *                            totalCycles == computeCycles + stallCycles
 *   runtime.envelope         trace-mode compute cycles reproduce the
 *                            analytical (2R + C + T - 2) *
 *                            ceil(Sr/R) * ceil(Sc/C) runtime (Eq. 1),
 *                            scaled by the layout slowdown
 *   foldCache.conservation   replayed + live folds == total folds, and
 *                            replayed addresses exist iff folds were
 *                            replayed
 *   foldCache.replayFidelity replaying a layer's demand stream with
 *                            the fold cache produces a byte-identical
 *                            stream to live generation (checksum
 *                            spot-check on bounded-size layers)
 *   dram.bankConservation    per-bank rowHits + rowMisses + conflicts
 *                            sum to the channel's requests; channel
 *                            stats sum to the system totals; bytes
 *                            equal requests x burstBytes
 *   dram.refreshBound        per-rank all-bank refresh counts stay
 *                            within the tREFI cadence implied by the
 *                            channel's active window
 *   energy.actionAccounting  MAC action classes partition PE-cycles;
 *                            SRAM access + idle port-cycles partition
 *                            port capacity; NoC words equal SRAM words
 *   energy.demandAgreement   trace-counted SRAM accesses equal the
 *                            closed-form array-edge access counts
 *   mem.trafficConservation  scratchpad-issued DRAM words/requests
 *                            equal the main-memory model's counters
 *   mc.arbConservation       multi-core arbiter grants equal the sum
 *                            of per-port admitted transactions; L1
 *                            fill words equal L2 hit + miss words
 *   run.totalsAccounting     run totals equal the repetition-weighted
 *                            sum of per-layer results
 *   cpi.conservation         CPI-stack buckets partition wall-clock
 *                            time: the per-cause cycle buckets sum
 *                            exactly to totalCycles for every layer,
 *                            every core, and the whole run; the
 *                            multi-core port-level read-latency split
 *                            (portWait + queue + refresh + service)
 *                            covers totalReadLatency per port
 *   trace.agreement          the main-memory trace of a layer has one
 *                            record per DRAM request the scratchpad
 *                            issued, each at a cycle inside the
 *                            layer's span of the run timeline
 */

#ifndef SCALESIM_CHECK_AUDIT_HH
#define SCALESIM_CHECK_AUDIT_HH

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/config.hpp"
#include "common/types.hpp"
#include "dram/system.hpp"
#include "energy/action_counts.hpp"
#include "multicore/trace_sim.hpp"
#include "obs/cpi.hpp"
#include "obs/stats.hpp"
#include "systolic/demand.hpp"
#include "systolic/scratchpad.hpp"
#include "systolic/trace_io.hpp"

namespace scalesim::check
{

/** One broken conservation law. */
struct Violation
{
    std::string law;     ///< stable law name (see file comment)
    std::string scope;   ///< layer name, channel, or "run"
    std::string message; ///< the failed relation with both sides
};

/** Identity of one registered law. */
struct LawInfo
{
    std::string name;
    std::string description;
};

/** Accumulated outcome of an audited run. */
class AuditReport
{
  public:
    /** Count one evaluated relation of `law`. */
    void recordCheck(std::string_view law);

    /** Record a broken relation (also counts as a check). */
    void recordViolation(std::string_view law, std::string_view scope,
                         std::string message);

    std::uint64_t checks() const { return checks_; }
    std::uint64_t checksForLaw(std::string_view law) const;
    const std::vector<Violation>& violations() const
    {
        return violations_;
    }
    bool clean() const { return violations_.empty(); }

    /**
     * Register `<prefix>.checks`, `<prefix>.violations`, and the
     * per-law `<prefix>.checksByLaw` / `<prefix>.violationsByLaw`
     * vectors (every registered law gets an element, so dumps are
     * schema-stable). Default prefix: "sim.audit".
     */
    void registerStats(obs::StatsRegistry& reg,
                       const std::string& prefix = "sim.audit") const;

    /** Human-readable violation list (empty output when clean). */
    void writeReport(std::ostream& out) const;

  private:
    std::uint64_t checks_ = 0;
    std::vector<Violation> violations_;
    /** law name -> checks run (violations counted separately). */
    std::vector<std::pair<std::string, std::uint64_t>> perLaw_;
};

/**
 * The auditor. One instance per audited Simulator (or driver); audit
 * entry points take the concrete counter structures so tests can
 * corrupt one counter and assert exactly the targeted law trips.
 */
class InvariantAuditor
{
  public:
    InvariantAuditor();

    /** All laws this auditor knows, in registration order. */
    static const std::vector<LawInfo>& laws();

    /** spad.stallAccounting over one layer's (or totals') timing. */
    void auditStallAccounting(const systolic::LayerTiming& timing,
                              std::string_view scope);

    /**
     * runtime.envelope: `timing` against the analytical runtime of
     * `grid` under `compute_scale` (the layout slowdown passed to the
     * scratchpad).
     */
    void auditRuntimeEnvelope(const systolic::LayerTiming& timing,
                              const systolic::FoldGrid& grid,
                              double compute_scale,
                              std::string_view scope);

    /** foldCache.conservation over accumulated cache counters. */
    void auditFoldCacheConservation(const systolic::FoldCacheStats& s,
                                    std::string_view scope);

    /**
     * foldCache.replayFidelity: regenerate the layer's demand stream
     * with the fold cache on and off and compare stream checksums.
     * Layers whose schedule exceeds `replayCheckMaxCycles()` are
     * skipped (spot-check, not a full re-run).
     */
    void auditFoldReplayFidelity(const GemmDims& gemm, Dataflow df,
                                 std::uint32_t array_rows,
                                 std::uint32_t array_cols,
                                 const systolic::OperandMap& operands,
                                 std::string_view scope);

    /** dram.bankConservation + dram.refreshBound over one channel. */
    void auditDramChannel(const dram::DramStats& ch,
                          const std::vector<dram::BankStats>& banks,
                          const dram::DramTiming& timing,
                          std::uint32_t ranks, std::string_view scope);

    /** Channel-sum-equals-total half of dram.bankConservation. */
    void auditDramTotals(const dram::DramStats& total,
                         const std::vector<dram::DramStats>& channels,
                         std::string_view scope);

    /** Audit a whole DRAM system (channels + totals). */
    void auditDramSystem(const dram::DramSystem& system,
                         std::string_view scope);

    /**
     * energy.actionAccounting (+ energy.demandAgreement when
     * `check_demand_agreement`): `counts` must be the per-layer counts
     * of a trace demand pass over `grid`, before stall/SIMD cycles or
     * sparse-metadata reads are folded in.
     */
    void auditEnergyActions(const energy::ActionCounts& counts,
                            const systolic::FoldGrid& grid,
                            bool check_demand_agreement,
                            std::string_view scope);

    /** mem.trafficConservation: scratchpad totals vs memory model. */
    void auditMemoryTraffic(const systolic::LayerTiming& spad_totals,
                            const systolic::MemoryStats& mem,
                            std::string_view scope);

    /**
     * trace.agreement: `records` are one layer instance's main-memory
     * trace, issued from `layer_start` on the run timeline; their
     * count must equal the layer's DRAM requests and every cycle must
     * lie in [layer_start, layer_start + timing.totalCycles].
     */
    void auditTraceAgreement(
        std::span<const systolic::MemTraceRecord> records,
        const systolic::LayerTiming& timing, Cycle layer_start,
        std::string_view scope);

    /** mc.arbConservation over one multi-core layer result, plus the
        per-port cpi.conservation read-latency split. */
    void auditArbiter(const multicore::MultiCoreTraceResult& result,
                      bool l2_enabled, std::string_view scope);

    /**
     * cpi.conservation: the stack's buckets must sum exactly to
     * `total_cycles` (one-cycle-one-bucket; no cycle lost or double
     * counted).
     */
    void auditCpiStack(const obs::CpiStack& cpi, Cycle total_cycles,
                       std::string_view scope);

    /**
     * run.totalsAccounting: `run_*` totals vs the repetition-weighted
     * per-layer sums (passed pre-summed by the caller).
     */
    void auditRunTotals(Cycle run_total, Cycle run_compute,
                        Cycle run_stall, std::uint64_t run_read_words,
                        std::uint64_t run_write_words, Cycle sum_total,
                        Cycle sum_compute, Cycle sum_stall,
                        std::uint64_t sum_read_words,
                        std::uint64_t sum_write_words,
                        std::string_view scope);

    const AuditReport& report() const { return report_; }
    AuditReport& report() { return report_; }

    /** Cycle cap for the replay-fidelity spot check (0 disables). */
    Cycle replayCheckMaxCycles() const { return replayCheckMax_; }
    void setReplayCheckMaxCycles(Cycle cap) { replayCheckMax_ = cap; }

  private:
    /** Evaluate one relation of `law`; record a violation if !ok. */
    void verify(bool ok, std::string_view law, std::string_view scope,
                const char* fmt, ...)
        __attribute__((format(printf, 5, 6)));

    AuditReport report_;
    Cycle replayCheckMax_ = 250'000;
};

} // namespace scalesim::check

#endif // SCALESIM_CHECK_AUDIT_HH
