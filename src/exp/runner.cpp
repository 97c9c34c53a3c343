#include "exp/runner.hpp"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <exception>
#include <thread>
#include <utility>

#include "obs/hooks.hpp"
#include "sim/assert.hpp"

namespace wlanps::exp {

const sim::Accumulator& Aggregate::metric(std::size_t point, std::string_view name) const {
    const sim::Accumulator* acc = find(point, name);
    WLANPS_REQUIRE_MSG(acc != nullptr,
                       "no metric named '" + std::string(name) + "' at grid point " +
                           std::to_string(point));
    return *acc;
}

const sim::Accumulator* Aggregate::find(std::size_t point, std::string_view name) const {
    if (point >= points_.size()) return nullptr;
    for (const auto& [metric_name, acc] : points_[point]) {
        if (metric_name == name) return &acc;
    }
    return nullptr;
}

std::vector<std::string> Aggregate::metric_names(std::size_t point) const {
    WLANPS_REQUIRE_MSG(point < points_.size(), "grid point out of range");
    std::vector<std::string> names;
    names.reserve(points_[point].size());
    for (const auto& [name, acc] : points_[point]) names.push_back(name);
    return names;
}

const obs::MetricsSnapshot& Aggregate::observed(std::size_t point) const {
    WLANPS_REQUIRE_MSG(point < observed_.size(), "grid point out of range");
    return observed_[point];
}

ExperimentRunner::ExperimentRunner(unsigned threads)
    : threads_(threads == 0 ? default_threads() : threads) {}

unsigned ExperimentRunner::default_threads() {
    if (const char* env = std::getenv("WLANPS_EXP_THREADS")) {
        const long n = std::strtol(env, nullptr, 10);
        if (n >= 1) return static_cast<unsigned>(n);
    }
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

ExperimentResult ExperimentRunner::run(const ExperimentSpec& spec) const {
    spec.validate();

    const auto& points = spec.points();
    const auto& seeds = spec.seeds();
    const std::size_t total = spec.total_runs();

    // Slot per run, point-major; workers write only their own slot, so the
    // result layout is fixed before any thread starts.
    std::vector<RunRecord> records(total);
    std::vector<std::exception_ptr> errors(total);

    auto execute = [&](std::size_t task) {
        const std::size_t point_index = task / seeds.size();
        const std::uint64_t seed = seeds[task % seeds.size()];
        RunRecord& rec = records[task];
        rec.point = point_index;
        rec.seed = seed;
        try {
            // One registry per run, installed thread-locally so anything
            // the run touches (kernel, MACs, NICs, TCP) records into it
            // without plumbing; snapshotted for the serial reduction.
            obs::MetricsRegistry registry;
            obs::ScopedRegistry scope(registry);
            rec.metrics = spec.run()(points[point_index], seed);
            rec.obs = registry.snapshot();
        } catch (...) {
            errors[task] = std::current_exception();
        }
    };

    const unsigned workers = static_cast<unsigned>(std::min<std::size_t>(threads_, total));
    if (workers <= 1) {
        for (std::size_t task = 0; task < total; ++task) execute(task);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) {
            pool.emplace_back([&] {
                // execute() never throws (it traps into errors[]), so a
                // worker always drains to the end and join() cannot hang.
                for (std::size_t task = next.fetch_add(1); task < total;
                     task = next.fetch_add(1)) {
                    execute(task);
                }
            });
        }
        for (auto& t : pool) t.join();
    }

    // Surface the first failure in deterministic (point, seed) order.
    for (const auto& error : errors) {
        if (error) std::rethrow_exception(error);
    }

    // Deterministic reduction: serial, point-major, seeds in spec order —
    // identical arithmetic whatever the thread count was.
    ExperimentResult result;
    result.aggregate.points_.resize(points.size());
    result.aggregate.observed_.resize(points.size());
    for (const RunRecord& rec : records) {
        result.aggregate.observed_[rec.point].merge_from(rec.obs);
        auto& stats = result.aggregate.points_[rec.point];
        for (const auto& [name, value] : rec.metrics) {
            sim::Accumulator* acc = nullptr;
            for (auto& [existing, a] : stats) {
                if (existing == name) {
                    acc = &a;
                    break;
                }
            }
            if (acc == nullptr) {
                stats.emplace_back(name, sim::Accumulator{});
                acc = &stats.back().second;
            }
            acc->add(value);
        }
    }
    // Every seed of a point must have produced every metric of that point:
    // a factory that emits different metric names per seed is a bug.
    for (std::size_t p = 0; p < result.aggregate.points_.size(); ++p) {
        for (const auto& [name, acc] : result.aggregate.points_[p]) {
            WLANPS_REQUIRE_MSG(acc.count() == seeds.size(),
                               "metric '" + name + "' missing from some runs of point " +
                                   std::to_string(p));
        }
    }
    result.runs = std::move(records);
    return result;
}

}  // namespace wlanps::exp
