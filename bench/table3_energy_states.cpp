/**
 * @file
 * Reproduces Table III: validation of the Accelergy-style energy model
 * across system states (idle with clock gating, active, power-gated)
 * against the paper's post-place-and-route reference numbers (65 nm,
 * 8x8 array, OS dataflow, quantized CNN workload).
 *
 * We cannot run PnR here; the paper's PnR column is kept as reference
 * constants (see DESIGN.md, substitutions). The model's active-state
 * power calibrates one global scale factor; idle and power-gated
 * values are then model predictions and their error against the PnR
 * reference is reported, mirroring the table's structure.
 */

#include "bench_util.hpp"
#include "common/log.hpp"
#include "common/workloads.hpp"
#include "core/simulator.hpp"

using namespace scalesim;

int
main(int argc, char** argv)
{
    benchutil::noArgs(argc, argv);
    setQuiet(true);
    std::printf("=== Table III: energy-model validation across system "
                "states ===\n");

    // Paper's PnR reference column (65 nm).
    const double pnr_idle = 12.3;
    const double pnr_active = 315.8;
    const double pnr_gated = 4.7;

    // Active state: the §VIII validation setup — 8x8 array, OS
    // dataflow, quantized CNN layers.
    SimConfig cfg;
    cfg.arrayRows = 8;
    cfg.arrayCols = 8;
    cfg.dataflow = Dataflow::OutputStationary;
    cfg.mode = SimMode::Trace;
    cfg.energy.enabled = true;
    cfg.memory.ifmapSramKb = 64;
    cfg.memory.filterSramKb = 64;
    cfg.memory.ofmapSramKb = 64;
    core::Simulator sim(cfg);
    const core::RunResult run = sim.run(workloads::resnet18Prefix(4));
    // PnR covers the chip itself; exclude main-memory energy.
    const double active_model = run.totalEnergy.onChipPj()
        / static_cast<double>(run.totalCycles);

    // Idle state (clock gating): the clock tree is stopped, so only
    // true leakage (PEs + SRAM) and the gated MACs' residual remain.
    const energy::Ert ert = energy::Ert::forNode(cfg.energy.node);
    const double pes = 64.0;
    const double sram_kb = 192.0;
    const double leak_per_cycle = pes * ert.peLeakPerCycle
        + sram_kb * ert.sramStaticPerKbCycle;
    const double idle_model = pes * ert.macGated
        + 3.0 * 8.0 * ert.sramIdle + leak_per_cycle;

    // Power gating: supply cut; only retention leakage remains.
    const double gated_model = ert.powerGateRetention * leak_per_cycle;

    // One-point calibration on the active state.
    const double scale = pnr_active / active_model;
    const double active = active_model * scale;
    const double idle = idle_model * scale;
    const double gated = gated_model * scale;

    benchutil::Table table({20, 12, 24, 10});
    table.row({"System State", "PnR Energy", "SCALE-Sim v3+Energy",
               "Error"});
    table.rule();
    auto err = [](double model, double ref) {
        return benchutil::fmt("%+.1f%%", 100.0 * (model - ref) / ref);
    };
    table.row({"Idle (clk gating)", benchutil::fmt("%.1f", pnr_idle),
               benchutil::fmt("%.1f", idle), err(idle, pnr_idle)});
    table.row({"Active", benchutil::fmt("%.1f", pnr_active),
               benchutil::fmt("%.1f", active),
               err(active, pnr_active)});
    table.row({"Power gating", benchutil::fmt("%.1f", pnr_gated),
               benchutil::fmt("%.1f", gated), err(gated, pnr_gated)});
    table.rule();
    std::printf("(paper: +2.4%% / -2.3%% / +4.3%%; active state "
                "calibrates the global scale, idle and power-gated are "
                "model predictions)\n");
    std::printf("state ordering gated < idle << active: %s\n",
                (gated < idle && idle < active / 5.0) ? "yes" : "NO");
    return 0;
}
