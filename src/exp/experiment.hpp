#pragma once
/// \file experiment.hpp
/// Declarative description of a multi-run experiment.
///
/// The paper's tables and ablations are all sweeps: a grid of scenario
/// configurations, each simulated under one or more seeds, reduced into
/// per-point statistics.  An ExperimentSpec captures exactly that — a
/// scenario factory, a parameter grid, and a seed list — so the
/// ExperimentRunner (runner.hpp) can execute the runs on a worker pool
/// while keeping the reduction deterministic.

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

namespace wlanps::exp {

/// One cell of the parameter grid.  The factory uses `index` to look up
/// whatever configuration object it swept; `label` names the cell in
/// reports ("park 12 mW", "listen interval 5", ...).
struct ParamPoint {
    std::size_t index = 0;
    std::string label;
};

/// Named scalar samples produced by one simulation run, in report order.
/// Every run of the same spec must produce the same metric names in the
/// same order (the aggregator enforces this).
using Metrics = std::vector<std::pair<std::string, double>>;

/// Scenario factory: build a fresh world for (point, seed), run it to
/// completion, and return its metrics.  Must be self-contained — each
/// invocation owns its Simulator and Random, shares nothing mutable —
/// because the runner may invoke it from several threads at once.
using RunFn = std::function<Metrics(const ParamPoint&, std::uint64_t seed)>;

/// Scenario factory + parameter grid + seed list.
///
/// Fluent construction:
/// \code
///   auto spec = exp::ExperimentSpec{}
///                   .with_run(run_one)
///                   .with_point("baseline").with_point("2x burst")
///                   .with_seed_range(42, 5);
/// \endcode
class ExperimentSpec {
public:
    /// Set the scenario factory.
    ExperimentSpec& with_run(RunFn run) {
        run_ = std::move(run);
        return *this;
    }

    /// Append one grid cell; its index is its position in append order.
    ExperimentSpec& with_point(std::string label) {
        points_.push_back(ParamPoint{points_.size(), std::move(label)});
        return *this;
    }

    /// Append several grid cells at once.
    ExperimentSpec& with_points(const std::vector<std::string>& labels) {
        for (const auto& label : labels) with_point(label);
        return *this;
    }

    /// Replace the seed list.
    ExperimentSpec& with_seeds(std::vector<std::uint64_t> seeds) {
        seeds_ = std::move(seeds);
        return *this;
    }

    /// Replace the seed list with {first, first+1, ..., first+count-1}.
    ExperimentSpec& with_seed_range(std::uint64_t first, std::size_t count) {
        seeds_.clear();
        for (std::size_t i = 0; i < count; ++i) seeds_.push_back(first + i);
        return *this;
    }

    /// Name the evaluation engine this spec's RunFn is bound to ("sim",
    /// "analytic").  Metadata for reports and BENCH json: the factory is
    /// what actually routes work to a core::Backend (e.g. via
    /// scenarios::spec_grid_run), so keep the two in sync.
    ExperimentSpec& with_backend(std::string backend) {
        backend_ = std::move(backend);
        return *this;
    }

    [[nodiscard]] const RunFn& run() const { return run_; }
    [[nodiscard]] const std::string& backend() const { return backend_; }
    [[nodiscard]] const std::vector<ParamPoint>& points() const { return points_; }
    [[nodiscard]] const std::vector<std::uint64_t>& seeds() const { return seeds_; }
    /// Total number of simulation runs the spec describes.
    [[nodiscard]] std::size_t total_runs() const { return points_.size() * seeds_.size(); }

    /// Reject nonsense (no factory, empty grid, empty or duplicated seed
    /// list) with a wlanps::ContractViolation naming the problem.
    void validate() const;

private:
    RunFn run_;
    std::vector<ParamPoint> points_;
    std::vector<std::uint64_t> seeds_;
    std::string backend_ = "sim";
};

}  // namespace wlanps::exp
