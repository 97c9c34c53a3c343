#pragma once
/// \file scenario_obs.hpp
/// End-of-run result/observability folds shared by the scenario engines
/// (core/bss_world.cpp and core/hotspot_world.cpp): per-client metric
/// assembly and the per-client / kernel registry folds, under the stable
/// keys dashboards and the experiment runner merge on.

#include "core/scenario_spec.hpp"
#include "obs/hooks.hpp"
#include "phy/calibration.hpp"
#include "sim/simulator.hpp"
#include "traffic/playout.hpp"

namespace wlanps::core {

/// Whole-device power: WNICs plus the IPAQ base platform.
[[nodiscard]] inline power::Power scenario_device_power(power::Power wnic) {
    return wnic + phy::calibration::kIpaqBase;
}

[[nodiscard]] inline ClientMetrics make_client_metrics(power::Power wnic_avg,
                                                       power::Energy wnic_energy,
                                                       const traffic::PlayoutBuffer& playout,
                                                       DataSize received) {
    ClientMetrics m;
    m.wnic_average = wnic_avg;
    m.wnic_energy = wnic_energy;
    m.device_average = scenario_device_power(wnic_avg);
    m.qos = playout.qos();
    m.underruns = playout.underruns();
    m.received = received;
    return m;
}

/// Fold the run's per-client results into the active obs registry (if
/// any): power/QoS/energy histograms accumulate percentiles across
/// clients and — via the runner's snapshot merge — across seeds.
inline void record_client_obs(const ScenarioResult& result) {
    obs::MetricsRegistry* reg = obs::current();
    if (reg == nullptr) return;
    for (const ClientMetrics& c : result.clients) {
        reg->histogram("scenario.client.wnic_mw").record(c.wnic_average.milliwatts());
        reg->histogram("scenario.client.device_mw").record(c.device_average.milliwatts());
        reg->histogram("scenario.client.energy_j").record(c.wnic_energy.joules());
        reg->histogram("scenario.client.qos").record(c.qos);
        reg->counter("scenario.client.underruns").add(c.underruns);
        reg->counter("scenario.client.received_bytes")
            .add(static_cast<std::uint64_t>(c.received.bytes()));
    }
}

/// End-of-run kernel accounting, under names that keep the tombstone
/// distinction explicit: queue_size() includes cancelled-but-unreaped
/// entries, pending_events() does not.
inline void record_kernel_obs(const sim::Simulator& sim) {
    obs::MetricsRegistry* reg = obs::current();
    if (reg == nullptr) return;
    reg->counter("sim.kernel.events_dispatched").add(sim.events_dispatched());
    reg->gauge("sim.queue.entries_incl_tombstones")
        .set(static_cast<double>(sim.queue_size()));
    reg->gauge("sim.queue.pending_live").set(static_cast<double>(sim.pending_events()));
}

}  // namespace wlanps::core
