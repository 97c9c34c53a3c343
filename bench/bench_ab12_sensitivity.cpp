/// \file bench_ab12_sensitivity.cpp
/// AB12 — Calibration sensitivity of the headline result.
///
/// Our NIC power numbers come from the paper's companion studies, not
/// from the authors' exact hardware.  This ablation sweeps the constants
/// the Figure 2 saving depends on most — Bluetooth park power, WLAN idle
/// power, and the WLAN resume latency — and shows the ~96% WNIC saving is
/// robust across plausible calibration errors (the claim is structural:
/// deep sleep between scheduled bursts, not a lucky constant).
///
/// The sweep runs as one exp::ExperimentSpec (one grid point per
/// calibration variant) on the parallel ExperimentRunner, under a
/// selectable evaluation engine:
///
///   --backend=sim       discrete-event simulator (default)
///   --backend=analytic  closed-form models (src/analytic/) — microseconds
///   --backend=both      run both, print the per-point cross-validation
///                       and the measured speedup
///
/// With WLANPS_GRID_OUT=<file> and a single backend, the per-point grid
/// metrics are written as JSON; run once per backend and feed the two
/// files to scripts/bench_diff.py --threshold to gate the agreement.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "analytic/backend.hpp"
#include "bench_util.hpp"
#include "core/backend.hpp"
#include "core/scenario_spec.hpp"
#include "exp/runner.hpp"

using namespace wlanps;
namespace bu = benchutil;

namespace {

core::StreamConfig base() {
    core::StreamConfig config;
    config.clients = 3;
    config.duration = Time::from_seconds(120);
    return config;
}

struct SweepPoint {
    std::string label;
    core::StreamConfig config;
};

std::vector<SweepPoint> build_sweep() {
    std::vector<SweepPoint> sweep;
    sweep.push_back({"baseline", base()});
    for (const double mw : {6.0, 12.0, 24.0, 48.0}) {
        auto config = base();
        config.bt_nic.park = power::Power::from_milliwatts(mw);
        sweep.push_back({"park " + std::to_string(mw).substr(0, 4) + " mW", config});
    }
    for (const double w : {0.66, 0.83, 1.00}) {
        auto config = base();
        config.wlan_nic.idle = power::Power::from_watts(w);
        sweep.push_back({"idle " + std::to_string(w).substr(0, 4) + " W", config});
    }
    for (const double ms : {100.0, 300.0, 600.0}) {
        auto config = base();
        config.wlan_nic.resume_latency = Time::from_ms(ms);
        sweep.push_back({"resume " + std::to_string(static_cast<int>(ms)) + " ms", config});
    }
    return sweep;
}

struct GridRun {
    exp::ExperimentResult result;
    double elapsed_s = 0.0;
};

/// The ab12 grid under one engine: per point, cam baseline + hotspot, the
/// saving between them.  Identical specs under every backend — the whole
/// point of the Backend interface.
GridRun run_grid(const std::vector<SweepPoint>& sweep,
                 const std::shared_ptr<const core::Backend>& backend) {
    exp::ExperimentSpec spec;
    spec.with_backend(backend->name());
    spec.with_run([&sweep, backend](const exp::ParamPoint& point, std::uint64_t seed) {
            const auto& config = sweep[point.index].config;
            const auto cam =
                backend->run(core::ScenarioSpec::cam().with_stream(config), seed);
            const auto hotspot =
                backend->run(core::ScenarioSpec::hotspot().with_stream(config), seed);
            exp::Metrics m;
            m.emplace_back("saving_pct", bu::saving_pct(cam.mean_wnic(), hotspot.mean_wnic()));
            m.emplace_back("hotspot_wnic_w", hotspot.mean_wnic().watts());
            return m;
        })
        .with_seeds({42});
    for (const auto& point : sweep) spec.with_point(point.label);

    exp::ExperimentRunner runner;  // WLANPS_EXP_THREADS or hardware threads
    GridRun out;
    const auto t0 = std::chrono::steady_clock::now();
    out.result = runner.run(spec);
    out.elapsed_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    return out;
}

void print_table(const std::vector<SweepPoint>& sweep, const exp::ExperimentResult& result) {
    auto saving = [&](std::size_t point) {
        return result.aggregate.metric(point, "saving_pct").mean();
    };
    std::printf("baseline: %.1f%% WNIC saving (paper: ~97%%)\n\n", saving(0));
    std::printf("Bluetooth park power (baseline 12 mW — sets the sleep floor):\n");
    for (std::size_t p = 1; p <= 4; ++p)
        std::printf("  %-12s -> saving %.1f%%\n", sweep[p].label.c_str(), saving(p));
    std::printf("\nWLAN idle power (baseline 0.83 W — sets the always-on cost):\n");
    for (std::size_t p = 5; p <= 7; ++p)
        std::printf("  %-12s -> saving %.1f%%\n", sweep[p].label.c_str(), saving(p));
    std::printf("\nWLAN resume latency (baseline 300 ms — penalizes WLAN bursts):\n");
    for (std::size_t p = 8; p <= 10; ++p)
        std::printf("  %-12s -> saving %.1f%%\n", sweep[p].label.c_str(), saving(p));
}

}  // namespace

int main(int argc, char** argv) {
    std::string backend_name = "sim";
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--backend=", 10) == 0) backend_name = argv[i] + 10;
    }

    bu::heading("AB12",
                "Headline-saving sensitivity to calibration constants (3 clients, 120 s)");
    const auto sweep = build_sweep();

    if (backend_name != "both") {
        const auto backend = analytic::make_backend(backend_name);
        std::printf("backend: %s\n", backend->name().c_str());
        const auto grid = run_grid(sweep, backend);
        print_table(sweep, grid.result);
        std::printf("\n%zu runs in %.3f s\n", grid.result.runs.size(), grid.elapsed_s);
        bu::note("expected shape: the saving stays in the 90s across the whole sweep —");
        bu::note("higher park power or lower idle power shave points but never break it");
        if (const char* out = std::getenv("WLANPS_GRID_OUT")) {
            if (FILE* f = std::fopen(out, "w")) {
                std::fprintf(f, "{\n  \"backend\": \"%s\"", backend->name().c_str());
                for (std::size_t p = 0; p < sweep.size(); ++p) {
                    std::fprintf(f, ",\n  \"%s saving_pct\": %.4f",
                                 sweep[p].label.c_str(),
                                 grid.result.aggregate.metric(p, "saving_pct").mean());
                }
                std::fprintf(f, "\n}\n");
                std::fclose(f);
                bu::note(std::string("grid metrics written to ") + out);
            }
        }
        return 0;
    }

    // --backend=both: the cross-validation mode.  Same specs, both
    // engines; report per-point agreement and the measured speedup.
    const auto sim_grid = run_grid(sweep, std::make_shared<core::SimBackend>());
    const auto ana_grid = run_grid(sweep, std::make_shared<analytic::AnalyticBackend>());

    std::printf("Cross-validation, simulator vs closed form (saving %% per point):\n");
    std::printf("%-14s %10s %10s %10s\n", "point", "sim", "analytic", "delta pp");
    for (std::size_t p = 0; p < sweep.size(); ++p) {
        const double s = sim_grid.result.aggregate.metric(p, "saving_pct").mean();
        const double a = ana_grid.result.aggregate.metric(p, "saving_pct").mean();
        std::printf("%-14s %9.1f%% %9.1f%% %+10.2f\n", sweep[p].label.c_str(), s, a, a - s);
    }
    const double speedup = sim_grid.elapsed_s / std::max(ana_grid.elapsed_s, 1e-9);
    std::printf("\nsim: %.3f s, analytic: %.6f s -> speedup %.0fx\n", sim_grid.elapsed_s,
                ana_grid.elapsed_s, speedup);
    bu::note("expected shape: savings agree within ~2 percentage points everywhere;");
    bu::note("the closed form screens the grid >=100x faster than the simulator");
    return 0;
}
