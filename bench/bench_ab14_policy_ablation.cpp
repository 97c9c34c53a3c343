/// \file bench_ab14_policy_ablation.cpp
/// AB14 — Power-policy ablation: pluggable policies x fault intensity.
///
/// The src/policy subsystem makes every power-saving behavior selectable
/// through one knob (ScenarioSpec::with_power_policy); this ablation runs
/// the four WLAN policies side by side on the same MP3 BSS workload:
///   * cam       — always-on baseline (alias for ScenarioSpec::cam())
///   * psm       — 802.11 PSM (alias for ScenarioSpec::psm(): TIM beacons
///                 + PS-Polls)
///   * micro_nap — μNap in-exchange micro-sleeps: the radio naps through
///                 NAV reservations and its own backoff countdowns when
///                 the gap clears the wake/sleep break-even
///   * pamas     — battery-driven duty-cycle stretch (PAMAS thresholds)
/// crossed with a fault-intensity axis (clean / mild / harsh link faults,
/// kinds every policy's world can inject).
///
/// Each cell runs with its own EnergyLedger, so the table shows *where*
/// each policy spends its joules (idle_listen, nav_sleep, beacon_wake,
/// ...), and the bench asserts the ledger reconciles against the
/// aggregate NIC energy within 1e-9 J — the attribution is exact, not
/// sampled.  It also asserts the headline claim: μNap converts idle
/// listening into nav_sleep relative to CAM on the clean channel.
///
/// With WLANPS_AB14_OUT=<file>, the grid is written as JSON for
/// scripts/plot_results.py --ab14 to plot.
/// --quick shrinks the run for CI.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/backend.hpp"
#include "core/scenario_spec.hpp"
#include "fault/fault.hpp"
#include "obs/energy_ledger.hpp"
#include "policy/policy.hpp"

using namespace wlanps;
namespace bu = benchutil;

namespace {

/// Fault-intensity axis: only link kinds (blackout, corruption), the
/// intersection every policy's world routes — the cells stay comparable.
std::vector<std::pair<std::string, fault::FaultPlan>> intensities() {
    std::vector<std::pair<std::string, fault::FaultPlan>> out;
    out.emplace_back("clean", fault::FaultPlan{});

    fault::FaultPlan mild;
    mild.corruption(Time::from_seconds(10), Time::from_seconds(10), 0.25);
    out.emplace_back("mild", mild);

    fault::FaultPlan harsh;
    harsh.corruption(Time::from_seconds(10), Time::from_seconds(15), 0.5)
        .blackout(Time::from_seconds(15), Time::from_seconds(3), 0,
                  fault::FaultSpec::Itf::wlan);
    out.emplace_back("harsh", harsh);
    return out;
}

struct Cell {
    std::string policy;
    std::string faults;
    std::string label;
    double wnic_w = 0.0;
    double qos_min = 0.0;
    std::uint64_t faults_injected = 0;
    double recon_err_j = 0.0;
    obs::EnergyLedger::CauseArray causes{};
};

}  // namespace

int main(int argc, char** argv) {
    bool quick = false;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--quick") == 0) quick = true;
    }

    bu::heading("AB14", "Power-policy ablation: policy x fault intensity");
    const int clients = 2;
    const Time duration = Time::from_seconds(quick ? 30 : 60);
    std::printf("%d clients, %.0f s, seed 42; per-cell energy-cause ledger\n\n", clients,
                duration.to_seconds());

    const policy::PolicyKind kinds[] = {
        policy::PolicyKind::cam,
        policy::PolicyKind::psm,
        policy::PolicyKind::micro_nap,
        policy::PolicyKind::pamas,
    };
    const auto axis = intensities();

    const core::SimBackend backend;
    std::vector<Cell> cells;
    double cam_clean_idle = 0.0;
    double nap_clean_idle = 0.0;
    double nap_clean_sleep = 0.0;
    int failures = 0;

    for (const policy::PolicyKind kind : kinds) {
        for (const auto& [fault_label, plan] : axis) {
            auto spec = core::ScenarioSpec::cam()
                            .with_power_policy(policy::PowerPolicyConfig::of(kind))
                            .with_clients(clients)
                            .with_duration(duration)
                            .with_fault_plan(plan);

            Cell cell;
            cell.policy = policy::to_string(kind);
            cell.faults = fault_label;

            obs::EnergyLedger ledger;
            {
                obs::ScopedEnergyLedger scope(ledger);
                const core::ScenarioResult result = backend.run(spec, /*seed=*/42);
                cell.label = result.label;
                cell.wnic_w = result.mean_wnic().watts();
                cell.qos_min = result.min_qos();
                cell.faults_injected = result.faults_injected;
                double aggregate_j = 0.0;
                for (const auto& c : result.clients) aggregate_j += c.wnic_energy.joules();
                cell.recon_err_j = std::fabs(ledger.total() - aggregate_j);
            }
            for (std::size_t c = 0; c < obs::kEnergyCauseCount; ++c) {
                cell.causes[c] = ledger.cause_total(static_cast<obs::EnergyCause>(c));
            }

            if (cell.recon_err_j >= 1e-9) {
                std::fprintf(stderr,
                             "FAIL: %s/%s ledger does not reconcile (err %.3e J)\n",
                             cell.policy.c_str(), cell.faults.c_str(), cell.recon_err_j);
                ++failures;
            }
            if (fault_label == "clean") {
                const double idle =
                    ledger.cause_total(obs::EnergyCause::idle_listen);
                if (kind == policy::PolicyKind::cam) cam_clean_idle = idle;
                if (kind == policy::PolicyKind::micro_nap) {
                    nap_clean_idle = idle;
                    nap_clean_sleep = ledger.cause_total(obs::EnergyCause::nav_sleep);
                }
            }
            cells.push_back(cell);
        }
    }

    std::printf("%-10s %-6s %9s %8s %7s | %9s %9s %9s %9s %9s\n", "policy", "faults",
                "WNIC mW", "min QoS", "faults", "idle J", "navslp J", "beacon J",
                "burst J", "tx J");
    for (const Cell& cell : cells) {
        std::printf("%-10s %-6s %9.2f %7.1f%% %7llu | %9.3f %9.3f %9.3f %9.3f %9.3f\n",
                    cell.policy.c_str(), cell.faults.c_str(), 1e3 * cell.wnic_w,
                    100.0 * cell.qos_min,
                    static_cast<unsigned long long>(cell.faults_injected),
                    cell.causes[static_cast<std::size_t>(obs::EnergyCause::idle_listen)],
                    cell.causes[static_cast<std::size_t>(obs::EnergyCause::nav_sleep)],
                    cell.causes[static_cast<std::size_t>(obs::EnergyCause::beacon_wake)],
                    cell.causes[static_cast<std::size_t>(obs::EnergyCause::burst_rx)],
                    cell.causes[static_cast<std::size_t>(obs::EnergyCause::tx)]);
    }

    // The headline reallocation: μNap turns CAM's idle listening into
    // nav_sleep.  Both are asserted, not just printed.
    if (!(nap_clean_sleep > 0.0)) {
        std::fprintf(stderr, "FAIL: micro_nap charged no nav_sleep energy\n");
        ++failures;
    }
    if (!(nap_clean_idle < cam_clean_idle)) {
        std::fprintf(stderr,
                     "FAIL: micro_nap idle_listen (%.3f J) not below cam (%.3f J)\n",
                     nap_clean_idle, cam_clean_idle);
        ++failures;
    }
    std::printf("\nμNap reallocation (clean): idle_listen %.3f J -> %.3f J, nav_sleep %.3f J\n",
                cam_clean_idle, nap_clean_idle, nap_clean_sleep);
    bu::note("expected shape: micro_nap undercuts cam by napping through NAV gaps");
    bu::note("(idle_listen shrinks, nav_sleep appears at doze power); psm and pamas");
    bu::note("sleep between beacons/duty cycles instead; every ledger reconciles to");
    bu::note("the aggregate NIC energy within 1e-9 J, faulted cells included.");

    if (const char* out = std::getenv("WLANPS_AB14_OUT")) {
        if (FILE* f = std::fopen(out, "w")) {
            std::fprintf(f, "{\n  \"clients\": %d,\n  \"duration_s\": %.0f,\n  \"seed\": 42,\n",
                         clients, duration.to_seconds());
            std::fprintf(f, "  \"cells\": [");
            for (std::size_t i = 0; i < cells.size(); ++i) {
                const Cell& cell = cells[i];
                std::fprintf(f, "%s\n    {\"policy\": \"%s\", \"faults\": \"%s\", ",
                             i == 0 ? "" : ",", cell.policy.c_str(), cell.faults.c_str());
                std::fprintf(f,
                             "\"label\": \"%s\", \"wnic_w\": %.6f, \"qos_min\": %.4f, "
                             "\"faults_injected\": %llu, \"recon_err_j\": %.3e, \"causes\": {",
                             cell.label.c_str(), cell.wnic_w, cell.qos_min,
                             static_cast<unsigned long long>(cell.faults_injected),
                             cell.recon_err_j);
                for (std::size_t c = 0; c < obs::kEnergyCauseCount; ++c) {
                    std::fprintf(f, "%s\"%s\": %.6f", c == 0 ? "" : ", ",
                                 obs::to_string(static_cast<obs::EnergyCause>(c)),
                                 cell.causes[c]);
                }
                std::fprintf(f, "}}");
            }
            std::fprintf(f, "\n  ]\n}\n");
            std::fclose(f);
            bu::note(std::string("policy-ablation grid written to ") + out);
        }
    }
    return failures == 0 ? 0 : 1;
}
