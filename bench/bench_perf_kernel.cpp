/// \file bench_perf_kernel.cpp
/// Micro-benchmarks of the simulation substrate (google-benchmark).
///
/// Not a paper artifact — engineering due diligence: the event kernel and
/// the hot paths of the scenario runs must be fast enough that 300 s
/// simulations stay interactive.

#include <benchmark/benchmark.h>

#include <cstdlib>
#include <memory>

#include "channel/ber.hpp"
#include "channel/gilbert_elliott.hpp"
#include "core/scenarios.hpp"
#include "core/scheduler.hpp"
#include "exp/runner.hpp"
#include "fed/federation.hpp"
#include "obs/health_report.hpp"
#include "obs/metrics.hpp"
#include "sim/random.hpp"
#include "sim/simulator.hpp"

#if defined(WLANPS_OBS_ENABLED)
#include "obs/kernel_profile.hpp"
#endif

using namespace wlanps;

namespace {

void BM_EventScheduleDispatch(benchmark::State& state) {
    sim::Simulator sim;
    std::uint64_t counter = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i) {
            sim.schedule_in(Time::from_us(i), [&counter] { ++counter; });
        }
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * 1000);
    benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_EventScheduleDispatch);

void BM_EventPostDispatch(benchmark::State& state) {
    // The no-handle fast path: slab nodes only, no shared cancellation
    // state per event.
    sim::Simulator sim;
    std::uint64_t counter = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i) {
            sim.post_in(Time::from_us(i), [&counter] { ++counter; });
        }
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * 1000);
    benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_EventPostDispatch);

#if defined(WLANPS_OBS_ENABLED)
void BM_EventPostDispatchProfiled(benchmark::State& state) {
    // Same workload as BM_EventPostDispatch with a KernelProfile attached:
    // every dispatch is counted and wall-clock timed.  The scripts/
    // check_perf.sh overhead gate compares the *unattached* obs build
    // against the baseline; this variant quantifies the attached cost.
    sim::Simulator sim;
    obs::MetricsRegistry registry;
    obs::KernelProfile profile(registry);
    sim.attach_profile(&profile);
    std::uint64_t counter = 0;
    for (auto _ : state) {
        for (int i = 0; i < 1000; ++i) {
            sim.post_in(Time::from_us(i), [&counter] { ++counter; });
        }
        sim.run();
    }
    state.SetItemsProcessed(state.iterations() * 1000);
    benchmark::DoNotOptimize(counter);
}
BENCHMARK(BM_EventPostDispatchProfiled);
#endif  // WLANPS_OBS_ENABLED

void BM_HistogramRecord(benchmark::State& state) {
    // The obs histogram's O(1) record path (frexp + increment) — the cost
    // every WLANPS_OBS_RECORD site pays when observability is on.
    obs::Histogram h;
    double x = 1.0;
    for (auto _ : state) {
        h.record(x);
        x = x < 1e9 ? x * 1.618 : 1.0;
    }
    benchmark::DoNotOptimize(h);
}
BENCHMARK(BM_HistogramRecord);

void BM_PeriodicTick(benchmark::State& state) {
    // The self-rearming periodic path: one queue push per tick, no
    // allocation, no callback relocation.
    sim::Simulator sim;
    std::uint64_t ticks = 0;
    sim::PeriodicEvent beacon(sim, Time::from_us(100), [&ticks] { ++ticks; });
    beacon.start();
    Time horizon = sim.now();
    for (auto _ : state) {
        horizon += Time::from_ms(100);  // 1000 ticks per iteration
        sim.run_until(horizon);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
    benchmark::DoNotOptimize(ticks);
}
BENCHMARK(BM_PeriodicTick);

void BM_EventCancel(benchmark::State& state) {
    // Schedule + cancel churn: tombstones must be reaped without letting
    // pending_events() drift.
    sim::Simulator sim;
    for (auto _ : state) {
        std::vector<sim::EventHandle> handles;
        handles.reserve(1000);
        std::uint64_t counter = 0;
        for (int i = 0; i < 1000; ++i) {
            handles.push_back(sim.schedule_in(Time::from_us(i), [&counter] { ++counter; }));
        }
        for (std::size_t i = 0; i < handles.size(); i += 2) handles[i].cancel();
        sim.run();
        benchmark::DoNotOptimize(counter);
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventCancel);

void BM_RandomExponential(benchmark::State& state) {
    sim::Random rng(1);
    double acc = 0.0;
    for (auto _ : state) acc += rng.exponential(1.0);
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_RandomExponential);

void BM_GilbertElliottTransmit(benchmark::State& state) {
    channel::GilbertElliottConfig cfg;
    channel::GilbertElliott ch(cfg, sim::Random(2));
    Time t = Time::zero();
    bool ok = false;
    for (auto _ : state) {
        ok ^= ch.transmit_success(t, DataSize::from_bytes(1500), Rate::from_mbps(11));
        t += Time::from_ms(2);  // > frame airtime: keeps queries time-ordered
    }
    benchmark::DoNotOptimize(ok);
}
BENCHMARK(BM_GilbertElliottTransmit);

void BM_PerTableLookup(benchmark::State& state) {
    // Interpolated BER→PER table vs the transcendental math it replaces.
    const auto& table =
        channel::PerTable::lookup(channel::Modulation::cck11, DataSize::from_bytes(1500));
    double snr = -10.0;
    double acc = 0.0;
    for (auto _ : state) {
        acc += table.per(snr);
        snr += 0.1;
        if (snr > 40.0) snr = -10.0;
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_PerTableLookup);

void BM_PerTableLookupBatch(benchmark::State& state) {
    // The vectorized burst path: one per_batch pass over a burst's worth
    // of SNR samples vs. per-frame scalar per() calls (BM_PerTableLookup).
    const auto& table =
        channel::PerTable::lookup(channel::Modulation::cck11, DataSize::from_bytes(1500));
    constexpr std::size_t kBurst = 4096;
    std::vector<double> snrs(kBurst);
    std::vector<double> per(kBurst);
    for (std::size_t i = 0; i < kBurst; ++i) {
        snrs[i] = -10.0 + static_cast<double>(i) * (50.0 / static_cast<double>(kBurst));
    }
    for (auto _ : state) {
        table.per_batch(snrs.data(), per.data(), kBurst);
        benchmark::DoNotOptimize(per.data());
        benchmark::ClobberMemory();
    }
    state.SetItemsProcessed(state.iterations() * kBurst);
}
BENCHMARK(BM_PerTableLookupBatch);

void BM_BerPerExact(benchmark::State& state) {
    // The uncached snr→ber→per math, for comparison with BM_PerTableLookup.
    double snr = -10.0;
    double acc = 0.0;
    for (auto _ : state) {
        acc += channel::packet_error_rate(
            channel::bit_error_rate(channel::Modulation::cck11, snr),
            DataSize::from_bytes(1500));
        snr += 0.1;
        if (snr > 40.0) snr = -10.0;
    }
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_BerPerExact);

void BM_SchedulerPick(benchmark::State& state) {
    core::WfqScheduler scheduler;
    std::vector<core::BurstRequest> pending;
    for (int i = 0; i < 16; ++i) {
        core::BurstRequest r;
        r.client = static_cast<core::ClientId>(i + 1);
        r.size = DataSize::from_kilobytes(48);
        r.deadline = Time::from_seconds(i);
        r.weight = 1.0 + i;
        pending.push_back(r);
    }
    std::size_t acc = 0;
    for (auto _ : state) acc += scheduler.pick(pending, Time::zero());
    benchmark::DoNotOptimize(acc);
}
BENCHMARK(BM_SchedulerPick);

void BM_HotspotScenarioSecond(benchmark::State& state) {
    // Cost of one simulated second of the full 3-client Hotspot world.
    for (auto _ : state) {
        core::StreamConfig config;
        config.clients = 3;
        config.duration = Time::from_seconds(10);
        auto result = core::SimBackend{}.run(core::ScenarioSpec::hotspot().with_stream(config));
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() * 10);  // simulated seconds
}
BENCHMARK(BM_HotspotScenarioSecond);

void BM_ShardedHotspot(benchmark::State& state) {
    // One run of the 64-client multi-cell hotspot on the sharded kernel,
    // by worker thread count (0 = the inline sequential reference the
    // strict policy is bit-identical to).  Real time, not CPU time: the
    // point is wall-clock speedup of a single simulation.
    //
    // WLANPS_BENCH_NO_HEALTH skips the HealthReport attach so
    // check_perf.sh can price the attached shard telemetry (obs builds
    // attach it through options.health) against the same binary without
    // it — a plain-vs-obs comparison would fold in every other
    // compiled-in obs cost on the sim path.
    const bool attach_health = std::getenv("WLANPS_BENCH_NO_HEALTH") == nullptr;
    obs::HealthReport health;
    for (auto _ : state) {
        core::StreamConfig config;
        config.clients = 64;
        config.duration = Time::from_seconds(10);
        core::HotspotConfig options;
        options.bt_available = false;  // 8 clients per cell exceeds a piconet
        options.sharding = core::ShardingConfig{}.with_shards(8).with_threads(
            static_cast<int>(state.range(0)));
        if (attach_health) options.health = &health;
        auto result = core::SimBackend{}.run(
            core::ScenarioSpec::hotspot().with_stream(config).with_hotspot(options));
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() * 10);  // simulated seconds
    state.counters["shard_imbalance"] = health.imbalance_index;
    state.counters["barrier_wait_ms"] = static_cast<double>(health.barrier_wait_ns) / 1e6;
    state.counters["idle_jumps"] = static_cast<double>(health.idle_jumps);
    state.counters["quanta"] = static_cast<double>(health.quanta);
}
BENCHMARK(BM_ShardedHotspot)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_Federation(benchmark::State& state) {
    // One run of a 16-AP federation — roaming clients, a flash crowd, and
    // admission control on the sharded kernel — by worker thread count
    // (0 = the inline sequential reference strict mode is bit-identical
    // to).  Real time: the point is wall-clock cost of a city-scale run.
    obs::HealthReport health;
    for (auto _ : state) {
        core::StreamConfig config;
        config.clients = 2000;
        config.duration = Time::from_seconds(30);
        core::FederationConfig fed;
        fed.with_aps(16)
            .with_shards(4)
            .with_threads(static_cast<int>(state.range(0)))
            .with_roaming(Time::from_seconds(8))
            .with_admission(core::AdmissionPolicy::defer)
            .with_capacity_per_ap(256);
        fed.base_arrival_hz = 2.0;
        fed.flash_arrival_hz = 50.0;
        fed.flash_start = Time::from_seconds(10);
        fed.flash_duration = Time::from_seconds(10);
        // run_federation instead of the backend dispatch: the result
        // carries the kernel health rollup the counters below report.
        auto fr = fed::run_federation(
            core::ScenarioSpec::federation().with_stream(config).with_federation(fed));
        benchmark::DoNotOptimize(fr);
        health = std::move(fr.health);
    }
    state.SetItemsProcessed(state.iterations() * 30);  // simulated seconds
    state.counters["shard_imbalance"] = health.imbalance_index;
    state.counters["barrier_wait_ms"] = static_cast<double>(health.barrier_wait_ns) / 1e6;
    state.counters["idle_jumps"] = static_cast<double>(health.idle_jumps);
    state.counters["quanta"] = static_cast<double>(health.quanta);
}
BENCHMARK(BM_Federation)->Arg(0)->Arg(1)->Arg(2)->Arg(4)->UseRealTime();

void BM_ExperimentSweep(benchmark::State& state) {
    // An 8-run Hotspot sweep through the experiment runner at 1..N worker
    // threads — the multi-core scaling path every sweep bench rides on.
    core::StreamConfig config;
    config.clients = 1;
    config.duration = Time::from_seconds(5);
    auto spec = exp::ExperimentSpec{}
                    .with_run(core::scenarios::spec_grid_run(
                        std::make_shared<core::SimBackend>(),
                        {core::ScenarioSpec::hotspot().with_stream(config),
                         core::ScenarioSpec::hotspot().with_stream(config)}))
                    .with_backend("sim")
                    .with_points({"a", "b"})
                    .with_seed_range(42, 4);
    exp::ExperimentRunner runner(static_cast<unsigned>(state.range(0)));
    for (auto _ : state) {
        auto result = runner.run(spec);
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(state.iterations() * spec.total_runs());
}
BENCHMARK(BM_ExperimentSweep)->Arg(1)->Arg(2)->Arg(4);

}  // namespace
