/// \file exp_runner_test.cpp
/// The experiment subsystem: spec validation, parallel-vs-serial
/// bit-identity, error propagation, and config validation.

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <memory>
#include <stdexcept>

#include "core/scenarios.hpp"
#include "exp/runner.hpp"
#include "sim/assert.hpp"
#include "sim/time.hpp"

using namespace wlanps;
namespace sc = core::scenarios;

namespace {

/// A cheap deterministic pseudo-workload: no simulator, just arithmetic
/// that depends on (point, seed) so wrong routing or reduction order shows.
exp::Metrics synthetic_run(const exp::ParamPoint& point, std::uint64_t seed) {
    const double x = std::sin(static_cast<double>(seed) * 0.37 +
                              static_cast<double>(point.index) * 1.91);
    return {{"x", x}, {"x2", x * x}};
}

exp::ExperimentSpec synthetic_spec() {
    return exp::ExperimentSpec{}
        .with_run(synthetic_run)
        .with_points({"p0", "p1", "p2"})
        .with_seed_range(7, 5);
}

void expect_identical(const sim::Accumulator& a, const sim::Accumulator& b) {
    ASSERT_EQ(a.count(), b.count());
    EXPECT_EQ(a.sum(), b.sum());       // bitwise: == on doubles, no tolerance
    EXPECT_EQ(a.mean(), b.mean());
    EXPECT_EQ(a.min(), b.min());
    EXPECT_EQ(a.max(), b.max());
    if (a.count() > 1) {
        EXPECT_EQ(a.variance(), b.variance());
    }
}

}  // namespace

TEST(ExperimentSpecTest, FluentBuildersCompose) {
    const auto spec = synthetic_spec();
    EXPECT_EQ(spec.points().size(), 3u);
    EXPECT_EQ(spec.points()[2].index, 2u);
    EXPECT_EQ(spec.points()[2].label, "p2");
    EXPECT_EQ(spec.seeds(), (std::vector<std::uint64_t>{7, 8, 9, 10, 11}));
    EXPECT_EQ(spec.total_runs(), 15u);
    EXPECT_NO_THROW(spec.validate());
}

TEST(ExperimentSpecTest, ValidateRejectsMissingFactory) {
    auto spec = synthetic_spec();
    spec.with_run(nullptr);
    EXPECT_THROW(spec.validate(), ContractViolation);
}

TEST(ExperimentSpecTest, ValidateRejectsEmptyGrid) {
    const auto spec = exp::ExperimentSpec{}.with_run(synthetic_run).with_seeds({1});
    EXPECT_THROW(spec.validate(), ContractViolation);
}

TEST(ExperimentSpecTest, ValidateRejectsEmptySeedList) {
    const auto spec = exp::ExperimentSpec{}.with_run(synthetic_run).with_point("p");
    EXPECT_THROW(spec.validate(), ContractViolation);
}

TEST(ExperimentSpecTest, ValidateRejectsDuplicateSeeds) {
    const auto spec =
        exp::ExperimentSpec{}.with_run(synthetic_run).with_point("p").with_seeds({3, 4, 3});
    EXPECT_THROW(spec.validate(), ContractViolation);
}

TEST(ExperimentRunnerTest, RunRecordsAreOrderedPointMajor) {
    const auto result = exp::ExperimentRunner(2).run(synthetic_spec());
    ASSERT_EQ(result.runs.size(), 15u);
    for (std::size_t i = 0; i < result.runs.size(); ++i) {
        EXPECT_EQ(result.runs[i].point, i / 5);
        EXPECT_EQ(result.runs[i].seed, 7 + (i % 5));
    }
}

TEST(ExperimentRunnerTest, ParallelIsBitIdenticalToSerial_Synthetic) {
    const auto spec = synthetic_spec();
    const auto serial = exp::ExperimentRunner(1).run(spec);
    const auto parallel = exp::ExperimentRunner(4).run(spec);

    ASSERT_EQ(serial.runs.size(), parallel.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
        EXPECT_EQ(serial.runs[i].metrics, parallel.runs[i].metrics);
    }
    for (std::size_t p = 0; p < 3; ++p) {
        for (const auto& name : serial.aggregate.metric_names(p)) {
            expect_identical(serial.aggregate.metric(p, name),
                             parallel.aggregate.metric(p, name));
        }
    }
}

TEST(ExperimentRunnerTest, ParallelIsBitIdenticalToSerial_FullScenario) {
    // Real worlds: every run owns its Simulator and Random, so four worker
    // threads must reproduce the single-thread doubles exactly.
    core::StreamConfig config;
    config.clients = 1;
    config.duration = Time::from_seconds(3);
    const auto spec =
        exp::ExperimentSpec{}
            .with_run(sc::spec_grid_run(std::make_shared<core::SimBackend>(),
                                        {core::ScenarioSpec::hotspot().with_stream(config),
                                         core::ScenarioSpec::psm().with_stream(config)}))
            .with_points({"hotspot", "psm"})
            .with_seed_range(42, 2);

    const auto serial = exp::ExperimentRunner(1).run(spec);
    const auto parallel = exp::ExperimentRunner(4).run(spec);
    for (std::size_t p = 0; p < 2; ++p) {
        const auto names = serial.aggregate.metric_names(p);
        ASSERT_EQ(names, parallel.aggregate.metric_names(p));
        for (const auto& name : names) {
            expect_identical(serial.aggregate.metric(p, name),
                             parallel.aggregate.metric(p, name));
        }
    }
}

TEST(ExperimentRunnerTest, WorkerExceptionSurfacesWithoutDeadlock) {
    std::atomic<int> completed{0};
    auto spec = exp::ExperimentSpec{}
                    .with_run([&completed](const exp::ParamPoint& point, std::uint64_t seed) {
                        if (point.index == 1 && seed == 8) {
                            throw std::runtime_error("injected failure");
                        }
                        ++completed;
                        return synthetic_run(point, seed);
                    })
                    .with_points({"p0", "p1", "p2"})
                    .with_seed_range(7, 3);

    exp::ExperimentRunner runner(4);
    EXPECT_THROW((void)runner.run(spec), std::runtime_error);
    // All non-throwing runs still executed: the pool drained and joined.
    EXPECT_EQ(completed.load(), 8);

    // The runner is stateless between runs: reusable after a failure.
    const auto result = runner.run(synthetic_spec());
    EXPECT_EQ(result.runs.size(), 15u);
}

TEST(ExperimentRunnerTest, AggregateLookupErrors) {
    const auto result = exp::ExperimentRunner(1).run(synthetic_spec());
    EXPECT_THROW((void)result.aggregate.metric(0, "nope"), ContractViolation);
    EXPECT_EQ(result.aggregate.find(0, "nope"), nullptr);
    EXPECT_EQ(result.aggregate.find(99, "x"), nullptr);
    EXPECT_NE(result.aggregate.find(0, "x"), nullptr);
}

TEST(ServerConfigTest, ValidateAcceptsDefaults) {
    EXPECT_NO_THROW(core::ServerConfig{}.validate());
}

TEST(ServerConfigTest, ValidateRejectsEachBadField) {
    using core::ServerConfig;
    EXPECT_THROW(ServerConfig{}.with_min_burst(DataSize::from_kilobytes(64)).validate(),
                 ContractViolation);  // min_burst > target_burst
    EXPECT_THROW(ServerConfig{}.with_min_burst(DataSize::zero()).validate(),
                 ContractViolation);
    EXPECT_THROW(ServerConfig{}.with_plan_interval(Time::zero()).validate(),
                 ContractViolation);
    EXPECT_THROW(ServerConfig{}.with_plan_interval(Time::from_ms(-1)).validate(),
                 ContractViolation);
    EXPECT_THROW(ServerConfig{}.with_target_burst_period(Time::zero()).validate(),
                 ContractViolation);
    EXPECT_THROW(ServerConfig{}.with_underrun_lead(Time::from_ms(-1)).validate(),
                 ContractViolation);
    EXPECT_THROW(ServerConfig{}.with_utilization_cap(0.0).validate(), ContractViolation);
    EXPECT_THROW(ServerConfig{}.with_reservation_margin(0.5).validate(), ContractViolation);
}

TEST(ServerConfigTest, ServerConstructionValidates) {
    sim::Simulator sim;
    EXPECT_THROW(core::HotspotServer(sim,
                                     core::ServerConfig{}.with_plan_interval(Time::zero()),
                                     core::make_scheduler("edf")),
                 ContractViolation);
}
