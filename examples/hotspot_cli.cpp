/// \file hotspot_cli.cpp
/// Command-line front end for the Hotspot simulator — run any
/// configuration without writing code.
///
/// Usage:
///   hotspot_cli [--clients N] [--duration SECONDS] [--scheduler NAME]
///               [--burst KB] [--config NAME] [--backend NAME] [--seed N]
///               [--no-bt] [--no-wlan]
///               [--fault-plan SPEC] [--recovery PRESET]
///               [--obs-trace FILE] [--obs-metrics FILE] [--obs-health FILE]
///               [--obs-stream FILE] [--obs-sample-interval S] [--obs-flight N]
///               [--obs-post-mortem PREFIX] [--obs-post-mortem-threshold S]
///
///   --config: hotspot (default) | wlan-cam | wlan-psm | bt | ecmac | mixed
///   --policy: run one BSS under a pluggable power policy instead of a
///            --config shape: cam | psm | ecmac | micro_nap | pamas
///            (micro_nap = in-exchange NAV/backoff micro-sleeps; pamas =
///            battery-driven duty-cycle stretch); a bad name lists the
///            valid ones
///   --backend: sim (default, discrete-event) | analytic (closed-form
///            steady-state models — microseconds per run; rejects faults,
///            ecmac, mixed, and tracing with a message naming the fix)
///   --scheduler: edf | wfq | round-robin | fixed-priority | fifo
///   --fault-plan: semicolon-separated deterministic fault schedule,
///            kind@START[+DUR][:cN|wlan|bt][%PROB][xCOUNT~PERIOD], e.g.
///            "crash@30+10:c1;blackout@60+5:wlan;poll-drop@90+20%0.5"
///            (kinds: nic-lockup wake-stuck beacon-loss poll-drop blackout
///             corruption crash silent-leave late-join schedule-drop)
///   --recovery: none (default) | reclaim | rejoin | degrade — what the
///            hotspot does about injected faults (liveness reclamation +
///            burst repair; + rejoin backoff; + media-proxy degradation)
/// Observability:
///   --obs-trace: write a Chrome trace_event JSON of the NIC power-state
///            lanes plus a fault lane when a plan is active (hotspot/mixed
///            configs) — open it at https://ui.perfetto.dev
///   --obs-metrics: write the run's obs metrics snapshot as flat JSON;
///            always includes the per-client energy ledger
///   --obs-health: write the kernel health report — per-shard
///            barrier/imbalance attribution, per-cell rollups (federation),
///            watchdog reports — as deterministic JSON.  Shard attribution
///            needs a -DWLANPS_OBS=ON build and a sharded run (--federation,
///            or --config hotspot --shards N)
///   --obs-stream: stream federation metrics incrementally to a compact
///            WPSM binary file (bench_diff.py decodes it)
///   --obs-sample-interval: poll queue depth / live clients / per-client
///            energy every S sim-seconds and export them as counter tracks
///            in the --obs-trace file; also drives the watchdog sweep
///            cadence (hotspot/mixed configs)
///   --obs-flight: keep a flight recorder of the last N causal hops
///            (enqueued/scheduled/polled/tx/retx/rx/doze-wakeup); hops are
///            recorded only in a -DWLANPS_OBS=ON build and exported into
///            the --obs-trace file as flow-arrow lanes
///   --obs-post-mortem: when a fault recovery takes longer than the
///            threshold (--obs-post-mortem-threshold S, default 1), dump
///            the flight recorder's tail to PREFIX.c<id>.<n>.flight.json
///            (implies --obs-flight 1024)
///
/// A runtime invariant watchdog is always armed: federation runs sweep it
/// at chunk boundaries (burst conservation, slab epoch monotonicity,
/// ledger drift, fingerprint stability), single-sim runs sweep per-client
/// energy monotonicity at the --obs-sample-interval cadence plus a final
/// ledger reconciliation.  Violations print as structured reports (and
/// land in --obs-health) instead of crashing the run.
///
/// Examples:
///   hotspot_cli                               # the Figure 2 hotspot row
///   hotspot_cli --config wlan-cam             # the baseline row
///   hotspot_cli --clients 5 --scheduler wfq --burst 96
///   hotspot_cli --fault-plan "crash@30+15:c1" --recovery rejoin
///   hotspot_cli --obs-trace hotspot_trace.json --obs-metrics metrics.json

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "analytic/backend.hpp"
#include "core/backend.hpp"
#include "fed/federation.hpp"
#include "core/burst_channel.hpp"
#include "core/client.hpp"
#include "core/scenario_spec.hpp"
#include "core/server.hpp"
#include "fault/fault.hpp"
#include "obs/energy_ledger.hpp"
#include "obs/flight.hpp"
#include "obs/health_report.hpp"
#include "obs/hooks.hpp"
#include "obs/json.hpp"
#include "obs/trace_export.hpp"
#include "obs/watchdog.hpp"
#include "sim/sampler.hpp"
#include "sim/trace.hpp"

using namespace wlanps;

namespace {

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s [--clients N] [--duration S] [--scheduler NAME] [--burst KB]\n"
                 "          [--config hotspot|wlan-cam|wlan-psm|bt|ecmac|mixed|federation]\n"
                 "          [--policy cam|psm|ecmac|micro_nap|pamas]\n"
                 "          [--backend sim|analytic] [--seed N] [--no-bt] [--no-wlan]\n"
                 "          [--fault-plan SPEC] [--recovery none|reclaim|rejoin|degrade]\n"
                 "          [--obs-trace FILE] [--obs-metrics FILE] [--obs-health FILE]\n"
                 "          [--obs-stream FILE] [--obs-sample-interval S] [--obs-flight N]\n"
                 "          [--obs-post-mortem PREFIX] [--obs-post-mortem-threshold S]\n"
                 "          [--federation] [--aps N] [--shards N] [--threads N]\n"
                 "          [--roaming DWELL_S] [--admission reject|defer|degrade]\n"
                 "          [--capacity N] [--arrivals HZ] [--flash HZ]\n",
                 argv0);
    std::exit(2);
}

void print_population(const fed::PopulationSummary& p) {
    std::printf("\nfederation: population %llu (arrivals %llu, departures %llu, "
                "truncated %llu)\n",
                static_cast<unsigned long long>(p.population),
                static_cast<unsigned long long>(p.arrivals),
                static_cast<unsigned long long>(p.departures),
                static_cast<unsigned long long>(p.arrivals_truncated));
    std::printf("admission: rejected %llu, deferred %llu, degraded %llu | peak "
                "association %llu\n",
                static_cast<unsigned long long>(p.rejected),
                static_cast<unsigned long long>(p.deferred),
                static_cast<unsigned long long>(p.degraded),
                static_cast<unsigned long long>(p.peak_association));
    std::printf("roams %llu (handoff failures %llu) | bursts: admitted %llu = "
                "completed %llu + shed %llu (%s)\n",
                static_cast<unsigned long long>(p.roams),
                static_cast<unsigned long long>(p.handoff_failures),
                static_cast<unsigned long long>(p.bursts_admitted),
                static_cast<unsigned long long>(p.bursts_completed),
                static_cast<unsigned long long>(p.bursts_shed),
                p.conserved() ? "conserved" : "NOT CONSERVED");
    if (p.faults_injected + p.faults_missed > 0) {
        std::printf("faults injected %llu, missed (target roamed away) %llu\n",
                    static_cast<unsigned long long>(p.faults_injected),
                    static_cast<unsigned long long>(p.faults_missed));
    }
    std::printf("population energy %.1f J | fingerprint %016llx\n", p.energy_j,
                static_cast<unsigned long long>(p.fingerprint));
}

void print(const core::ScenarioResult& result) {
    std::printf("%-22s %12s %14s %8s %10s %12s\n", "configuration", "WNIC power",
                "device power", "QoS", "underruns", "received");
    for (std::size_t i = 0; i < result.clients.size(); ++i) {
        const auto& c = result.clients[i];
        std::printf("%s client %-8zu %12s %14s %7.2f%% %10llu %12s\n",
                    result.label.c_str(), i + 1, c.wnic_average.str().c_str(),
                    c.device_average.str().c_str(), 100.0 * c.qos,
                    static_cast<unsigned long long>(c.underruns), c.received.str().c_str());
    }
    std::printf("mean WNIC %s, mean device %s, min QoS %.2f%%\n",
                result.mean_wnic().str().c_str(), result.mean_device().str().c_str(),
                100.0 * result.min_qos());
}

void print_recovery(const core::ScenarioResult& result) {
    const auto& r = result.recovery;
    if (result.faults_injected == 0 && r.total_recoveries() == 0 &&
        result.degradation.empty()) {
        return;
    }
    std::printf("\nfaults injected %llu | reclaims %llu, burst repairs %llu, "
                "schedule drops %llu, rejoins %llu/%llu\n",
                static_cast<unsigned long long>(result.faults_injected),
                static_cast<unsigned long long>(r.liveness_reclaims),
                static_cast<unsigned long long>(r.burst_repairs),
                static_cast<unsigned long long>(r.schedule_drops),
                static_cast<unsigned long long>(r.rejoins),
                static_cast<unsigned long long>(r.rejoin_attempts));
    if (!r.recover_times_s.empty()) {
        double sum = 0.0;
        for (double t : r.recover_times_s) sum += t;
        std::printf("time to recover: mean %.2f s over %zu recoveries\n",
                    sum / static_cast<double>(r.recover_times_s.size()),
                    r.recover_times_s.size());
    }
    for (std::size_t i = 0; i < result.degradation.size(); ++i) {
        const auto& d = result.degradation[i];
        if (d.adaptations == 0) continue;
        std::printf("proxy C%zu: %llu adaptations, %llu video drops, %llu pauses, "
                    "%.1f s audio-only, %.1f s paused\n",
                    i + 1, static_cast<unsigned long long>(d.adaptations),
                    static_cast<unsigned long long>(d.video_drops),
                    static_cast<unsigned long long>(d.pauses), d.time_audio_only_s,
                    d.time_paused_s);
    }
}

void print_watchdog(const obs::Watchdog& w) {
    if (w.sweeps() == 0 && w.violations() == 0) return;
    std::printf("\nwatchdog: %zu checks, %llu sweeps, %llu violations\n", w.check_count(),
                static_cast<unsigned long long>(w.sweeps()),
                static_cast<unsigned long long>(w.violations()));
    for (const auto& r : w.reports()) {
        std::printf("  [%s] @ %.3f s (sweep %llu): %s\n", r.check.c_str(),
                    static_cast<double>(r.t_ns) / 1e9,
                    static_cast<unsigned long long>(r.sweep), r.message.c_str());
        if (!r.flight_dump.empty()) {
            std::printf("    flight dump: %s\n", r.flight_dump.c_str());
        }
    }
}

}  // namespace

int main(int argc, char** argv) {
    core::StreamConfig config;
    core::HotspotConfig options;
    core::FederationConfig fed_options;
    std::string kind = "hotspot";
    std::string policy_name;
    std::string backend_name = "sim";
    std::string trace_path;
    std::string metrics_path;
    std::string health_path;
    std::string recovery = "none";
    double sample_interval_s = 0.0;
    std::size_t flight_capacity = 0;
    std::string postmortem_prefix;
    double postmortem_threshold_s = 1.0;
    int shards_flag = -1;
    int threads_flag = -1;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--clients") {
            config.clients = std::atoi(next());
            if (config.clients < 1) usage(argv[0]);
        } else if (arg == "--duration") {
            config.duration = Time::from_seconds(std::atof(next()));
        } else if (arg == "--scheduler") {
            options.scheduler = next();
        } else if (arg == "--burst") {
            options.target_burst = DataSize::from_kilobytes(std::atof(next()));
        } else if (arg == "--config") {
            kind = next();
        } else if (arg == "--policy") {
            policy_name = next();
        } else if (arg.rfind("--policy=", 0) == 0) {
            policy_name = arg.substr(std::strlen("--policy="));
        } else if (arg == "--backend") {
            backend_name = next();
        } else if (arg == "--seed") {
            config.seed = static_cast<std::uint64_t>(std::atoll(next()));
        } else if (arg == "--no-bt") {
            options.bt_available = false;
        } else if (arg == "--no-wlan") {
            options.wlan_available = false;
        } else if (arg == "--fault-plan") {
            try {
                config.fault_plan = fault::FaultPlan::parse(next());
            } catch (const ContractViolation& e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                return 2;
            }
        } else if (arg == "--recovery") {
            recovery = next();
        } else if (arg == "--obs-trace") {
            trace_path = next();
        } else if (arg == "--obs-metrics") {
            metrics_path = next();
        } else if (arg == "--obs-health") {
            health_path = next();
        } else if (arg == "--obs-sample-interval") {
            sample_interval_s = std::atof(next());
            if (sample_interval_s <= 0.0) usage(argv[0]);
        } else if (arg == "--obs-flight") {
            flight_capacity = static_cast<std::size_t>(std::atoll(next()));
            if (flight_capacity < 1) usage(argv[0]);
        } else if (arg == "--obs-post-mortem") {
            postmortem_prefix = next();
        } else if (arg == "--obs-post-mortem-threshold") {
            postmortem_threshold_s = std::atof(next());
        } else if (arg == "--federation") {
            kind = "federation";
        } else if (arg == "--aps") {
            fed_options.with_aps(std::atoi(next()));
        } else if (arg == "--shards") {
            shards_flag = std::atoi(next());
            fed_options.with_shards(shards_flag);
        } else if (arg == "--threads") {
            threads_flag = std::atoi(next());
            fed_options.with_threads(threads_flag);
        } else if (arg == "--roaming") {
            fed_options.with_roaming(Time::from_seconds(std::atof(next())));
        } else if (arg == "--admission") {
            try {
                fed_options.with_admission(core::parse_admission(next()));
            } catch (const ContractViolation& e) {
                std::fprintf(stderr, "error: %s\n", e.what());
                return 2;
            }
        } else if (arg == "--capacity") {
            fed_options.with_capacity_per_ap(std::atoi(next()));
        } else if (arg == "--arrivals") {
            fed_options.base_arrival_hz = std::atof(next());
        } else if (arg == "--flash") {
            fed_options.flash_arrival_hz = std::atof(next());
        } else if (arg == "--obs-stream") {
            fed_options.with_stream_path(next());
        } else {
            usage(argv[0]);
        }
    }

    // --shards/--threads name whichever sharded world runs: the federation,
    // or the sharded hotspot (--config hotspot --shards N).  A mixed
    // workload takes them too, so validate() refuses the combination.
    if (kind == "hotspot" || kind == "mixed") {
        if (shards_flag > 0) options.sharding.with_shards(shards_flag);
        if (threads_flag >= 0) options.sharding.with_threads(threads_flag);
    }

    // Recovery presets stack: reclaim < rejoin < degrade.
    if (recovery == "reclaim" || recovery == "rejoin" || recovery == "degrade") {
        options.resilience = core::ResilienceConfig{}
                                 .with_liveness_timeout(Time::from_seconds(5))
                                 .with_burst_repair(true);
        options.rejoin_enabled = recovery != "reclaim";
        options.media_proxy = recovery == "degrade";
    } else if (recovery != "none") {
        usage(argv[0]);
    }

    // The obs registry collects whatever the run records; --obs-metrics
    // dumps it.  --obs-trace additionally mirrors every NIC's power states into
    // timeline lanes (hotspot/mixed configs own their NICs through
    // HotspotClient channels; other configs have no lane hook here), plus
    // one lane for the fault injector when a plan is active.
    obs::MetricsRegistry registry;
    obs::ScopedRegistry obs_scope(registry);

    // The energy ledger is always scoped: every config attaches its NICs,
    // so --obs-metrics carries the per-client, per-cause breakdown for free.
    obs::EnergyLedger ledger;
    obs::ScopedEnergyLedger ledger_scope(ledger);

    // The runtime invariant watchdog is always armed: the federation
    // sweeps it at chunk boundaries (conservation, epoch monotonicity,
    // ledger drift, fingerprint stability), the single-sim path from the
    // sampler tick below plus one final ledger reconciliation.
    obs::Watchdog watchdog;
    obs::ScopedWatchdog watchdog_scope(watchdog);

    // Per-client energy monotonicity: WNIC energy integrals only grow.
    // The clients live inside the scenario, so `alive` gates the check to
    // the window between on_start and inspect.
    struct EnergyWatch {
        std::vector<core::HotspotClient*> clients;
        std::vector<double> prev;
        bool alive = false;
    };
    auto energy_watch = std::make_shared<EnergyWatch>();
    watchdog.add_check("cli.energy_monotonic", [energy_watch]() -> std::optional<std::string> {
        if (!energy_watch->alive) return std::nullopt;
        for (std::size_t i = 0; i < energy_watch->clients.size(); ++i) {
            const double e = energy_watch->clients[i]->wnic_energy().joules();
            if (e + 1e-12 < energy_watch->prev[i]) {
                return "client " + std::to_string(i + 1) + " WNIC energy went backwards (" +
                       std::to_string(e) + " J after " + std::to_string(energy_watch->prev[i]) +
                       " J)";
            }
            energy_watch->prev[i] = e;
        }
        return std::nullopt;
    });

    // Flight recorder + post-mortem dumper (--obs-post-mortem implies a
    // recorder).  Hops are recorded only in a -DWLANPS_OBS=ON build; in
    // other builds the recorder simply stays empty.
    std::unique_ptr<obs::FlightRecorder> flight;
    std::unique_ptr<obs::ScopedFlightRecorder> flight_scope;
    std::unique_ptr<obs::PostMortem> postmortem;
    std::unique_ptr<obs::ScopedPostMortem> postmortem_scope;
    if (flight_capacity > 0 || !postmortem_prefix.empty()) {
        flight = std::make_unique<obs::FlightRecorder>(
            flight_capacity > 0 ? flight_capacity : std::size_t{1024});
        flight_scope = std::make_unique<obs::ScopedFlightRecorder>(*flight);
        if (!postmortem_prefix.empty()) {
            obs::PostMortemConfig pm_cfg;
            pm_cfg.threshold_s = postmortem_threshold_s;
            pm_cfg.path_prefix = postmortem_prefix;
            postmortem = std::make_unique<obs::PostMortem>(*flight, pm_cfg);
            postmortem_scope = std::make_unique<obs::ScopedPostMortem>(*postmortem);
        }
        // A watchdog violation snapshots the flight recorder's tail too.
        watchdog.set_flight(flight.get(), postmortem_prefix.empty()
                                              ? std::string("watchdog")
                                              : postmortem_prefix + ".watchdog");
    }

    std::vector<std::unique_ptr<sim::TimelineTrace>> lanes;
    std::vector<std::string> lane_names;
    sim::TimelineTrace fault_lane;
    // The sampler's periodic tick lives inside the scenario's simulator,
    // so it is built in on_start and torn down in inspect (its series are
    // copied out first) — it must not outlive the sim.
    std::unique_ptr<sim::SimSampler> sampler;
    std::vector<sim::SimSampler::Series> sampled;
    if (!trace_path.empty() || sample_interval_s > 0.0) {
        if (kind != "hotspot" && kind != "mixed") {
            std::fprintf(stderr, "note: --obs-trace/--obs-sample-interval are wired for "
                                 "hotspot/mixed only\n");
        }
        if (sample_interval_s > 0.0 && trace_path.empty()) {
            std::fprintf(stderr,
                         "note: --obs-sample-interval tracks are exported via --obs-trace\n");
        }
        if (!config.fault_plan.empty() && !trace_path.empty()) {
            options.fault_trace = &fault_lane;
        }
        options.on_start = [&](sim::Simulator& s, core::HotspotServer& server,
                               std::vector<core::HotspotClient*>& clients) {
            energy_watch->clients = clients;
            energy_watch->prev.assign(clients.size(), 0.0);
            energy_watch->alive = true;
            if (!trace_path.empty()) {
                for (std::size_t i = 0; i < clients.size(); ++i) {
                    for (core::BurstChannel* ch : clients[i]->channels()) {
                        auto trace = std::make_unique<sim::TimelineTrace>();
                        ch->wnic().attach_trace(trace.get());
                        lane_names.push_back("C" + std::to_string(i + 1) + " " +
                                             ch->wnic().name());
                        lanes.push_back(std::move(trace));
                    }
                }
            }
            if (sample_interval_s > 0.0) {
                sampler = std::make_unique<sim::SimSampler>(
                    s, Time::from_seconds(sample_interval_s));
                core::HotspotServer* srv = &server;
                sampler->add_track("server pending bursts", [srv] {
                    return static_cast<double>(srv->pending_bursts());
                });
                sampler->add_track("live clients", [srv] {
                    return static_cast<double>(srv->client_count());
                });
                for (std::size_t i = 0; i < clients.size(); ++i) {
                    core::HotspotClient* c = clients[i];
                    sampler->add_track("C" + std::to_string(i + 1) + " energy J",
                                       [c] { return c->wnic_energy().joules(); });
                    sampler->add_track("C" + std::to_string(i + 1) + " battery",
                                       [c] { return c->battery_level(); });
                }
                // The sampler tick doubles as the watchdog sweep driver.
                sim::Simulator* sp = &s;
                obs::Watchdog* wd = &watchdog;
                sampler->add_track("watchdog violations", [sp, wd] {
                    wd->sweep(sp->now().ns());
                    return static_cast<double>(wd->violations());
                });
                sampler->start();
            }
        };
        options.inspect = [&](sim::Simulator& s, core::HotspotServer&,
                              std::vector<core::HotspotClient*>&) {
            // Last sweep while the clients still exist, then disarm the
            // energy watch — later sweeps must not chase dead pointers.
            watchdog.sweep(s.now().ns());
            energy_watch->alive = false;
            energy_watch->clients.clear();
            for (auto& lane : lanes) lane->finish(s.now());
            fault_lane.finish(s.now());
            if (sampler) {
                sampler->stop();
                sampled = sampler->series();
                sampler.reset();  // its periodic event must die with the sim
            }
        };
    }

    // Kernel health rollup: the sharded hotspot fills this in place; the
    // federation builds and writes its own report via fed_options.
    obs::HealthReport health_report;
    if (kind == "hotspot" && policy_name.empty() && options.sharding.enabled()) {
        options.health = &health_report;
    }
    if (!health_path.empty()) fed_options.with_health_path(health_path);

    try {
        // --config picks the spec shape, --backend picks the engine; the
        // spec itself is engine-agnostic (Backend::run rejects unsupported
        // combinations, e.g. analytic + fault plan, with the reason).
        core::ScenarioSpec spec = [&]() -> core::ScenarioSpec {
            if (!policy_name.empty()) {
                // --policy replaces --config: one BSS whose stations run the
                // named power policy (parse_power_policy lists valid names).
                return core::ScenarioSpec::cam().with_power_policy(
                    policy::PowerPolicyConfig::of(policy::parse_power_policy(policy_name)));
            }
            if (kind == "hotspot") return core::ScenarioSpec::hotspot().with_hotspot(options);
            if (kind == "wlan-cam") return core::ScenarioSpec::cam();
            if (kind == "wlan-psm") return core::ScenarioSpec::psm();
            if (kind == "bt") return core::ScenarioSpec::bt();
            if (kind == "ecmac") return core::ScenarioSpec::ecmac();
            if (kind == "mixed") {
                return core::ScenarioSpec::hotspot_mixed().with_hotspot(options).with_mix(
                    core::MixedWorkload{});
            }
            if (kind == "federation") {
                return core::ScenarioSpec::federation().with_federation(fed_options);
            }
            usage(argv[0]);
        }();
        spec.with_stream(config);
        std::printf("%d client(s), %.0f s, seed %llu\n", spec.clients(),
                    config.duration.to_seconds(), static_cast<unsigned long long>(config.seed));
        if (!config.fault_plan.empty()) {
            std::printf("fault plan: %s (recovery: %s)\n", config.fault_plan.str().c_str(),
                        recovery.c_str());
        }
        std::printf("\n");
        if (kind == "federation") {
            // Run directly: the population summary and fingerprint live
            // beside the backend-shaped ScenarioResult.
            const fed::FederationResult fr = fed::run_federation(spec);
            print(fr.scenario);
            print_population(fr.population);
            print_watchdog(watchdog);
            if (!fed_options.stream_path.empty()) {
                std::printf("metrics stream written to %s\n",
                            fed_options.stream_path.c_str());
            }
            if (!health_path.empty()) {
                std::printf("health report written to %s\n", health_path.c_str());
            }
            if (!metrics_path.empty()) {
                obs::write_json_file(registry.snapshot(), &ledger, metrics_path);
                std::printf("metrics snapshot written to %s\n", metrics_path.c_str());
            }
            return watchdog.healthy() ? 0 : 3;
        }
        const auto backend = analytic::make_backend(backend_name);
        const auto result = backend->run(spec);
        print(result);
        print_recovery(result);
        if (!trace_path.empty()) {
            obs::ChromeTraceWriter writer;
            for (std::size_t i = 0; i < lanes.size(); ++i) {
                writer.add_lane(lane_names[i], *lanes[i]);
            }
            if (!config.fault_plan.empty()) writer.add_lane("faults", fault_lane);
            for (const auto& series : sampled) {
                for (const auto& [at, value] : series.samples) {
                    writer.add_counter(series.name, at, value);
                }
            }
            if (flight) obs::export_flight(writer, *flight);
            writer.write_file(trace_path);
            std::printf("chrome trace written to %s (open at https://ui.perfetto.dev)\n",
                        trace_path.c_str());
        }
        if (flight) {
            std::printf("flight recorder: %llu hops recorded, %zu held, %llu dropped\n",
                        static_cast<unsigned long long>(flight->total()), flight->size(),
                        static_cast<unsigned long long>(flight->dropped()));
        }
        if (postmortem) {
            for (const std::string& f : postmortem->files()) {
                std::printf("post-mortem flight dump written to %s\n", f.c_str());
            }
        }
        if (!metrics_path.empty()) {
            obs::write_json_file(registry.snapshot(), &ledger, metrics_path);
            std::printf("metrics snapshot written to %s\n", metrics_path.c_str());
        }
        // Final reconciliation: the per-cause ledger telescopes to the
        // summed WNIC energy integrals.  Analytic runs leave the ledger
        // empty — nothing to reconcile.
        if (ledger.total() > 0.0) {
            double wnic_j = 0.0;
            for (const auto& c : result.clients) wnic_j += c.wnic_energy.joules();
            watchdog.add_check(
                "cli.ledger_reconcile", [&ledger, wnic_j]() -> std::optional<std::string> {
                    const double drift = ledger.total() - wnic_j;
                    if (std::fabs(drift) < 1e-6) return std::nullopt;
                    return "energy ledger total " + std::to_string(ledger.total()) +
                           " J drifts " + std::to_string(drift) +
                           " J from summed WNIC energy";
                });
            watchdog.sweep(config.duration.ns());
        }
        print_watchdog(watchdog);
        if (!health_path.empty()) {
            if (options.health == nullptr) {
                health_report.scope = policy_name.empty() ? kind : "policy-" + policy_name;
            }
            health_report.set_watchdog(watchdog);
            health_report.write_file(health_path);
            std::printf("health report written to %s\n", health_path.c_str());
        }
    } catch (const ContractViolation& e) {
        std::fprintf(stderr, "error: %s\n", e.what());
        return 1;
    }
    return watchdog.healthy() ? 0 : 3;
}
