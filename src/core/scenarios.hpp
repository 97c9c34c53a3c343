#pragma once
/// \file scenarios.hpp
/// Experiment-runner integration for scenarios.
///
/// The scenario description itself lives in core/scenario_spec.hpp
/// (ScenarioSpec) and execution engines in core/backend.hpp (SimBackend)
/// and analytic/backend.hpp (AnalyticBackend).  This header binds them to
/// the exp::ExperimentRunner: to_metrics, spec_grid_run, fault_grid_run.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/backend.hpp"
#include "core/client.hpp"
#include "core/scenario_spec.hpp"
#include "core/server.hpp"
#include "exp/experiment.hpp"
#include "fault/fault.hpp"

namespace wlanps::core::scenarios {

// Every run function below builds a fresh world per invocation (own
// Simulator, own Random), so the runner may call it from several worker
// threads at once — provided any callbacks inside a captured HotspotConfig
// (on_start / inspect / contract_tweak) are themselves safe to run
// concurrently.

/// Flatten a ScenarioResult into experiment metrics: the scenario-level
/// aggregates ("wnic_w", "device_w", "qos_min") followed by per-client
/// power/QoS ("c1.wnic_w", "c1.qos", ...).
[[nodiscard]] exp::Metrics to_metrics(const ScenarioResult& result);

/// to_metrics plus the recovery/fault columns ("faults_injected",
/// "liveness_reclaims", "burst_repairs", "rejoins", "mean_recover_s",
/// ...).  Column names are constant across points and seeds so the runner
/// can aggregate a fault grid.
[[nodiscard]] exp::Metrics to_recovery_metrics(const ScenarioResult& result);

/// Bind a backend + per-point specs into an exp::RunFn: point.index
/// selects the spec, the metrics are to_metrics(backend->run(spec, seed)).
/// This is how an ExperimentSpec's backend axis (with_backend) is
/// realised: build the same specs, pick the engine, run the same grid.
[[nodiscard]] exp::RunFn spec_grid_run(std::shared_ptr<const Backend> backend,
                                       std::vector<ScenarioSpec> specs);

/// Bind a hotspot scenario to a grid of fault plans: point.index selects
/// the plan (so each plan is one sweep axis cell), the returned metrics
/// are to_recovery_metrics.  \p plans must have one entry per grid point.
[[nodiscard]] exp::RunFn fault_grid_run(StreamConfig config, core::HotspotConfig options,
                                        std::vector<fault::FaultPlan> plans);

}  // namespace wlanps::core::scenarios
