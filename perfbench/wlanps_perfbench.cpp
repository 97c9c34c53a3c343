/// \file wlanps_perfbench.cpp
/// End-to-end benchmark driver.  Runs one closed-loop workload for a
/// wall-clock window (or a fixed iteration count), checks every simulated
/// output, and prints a digest line per iteration plus one `result` JSON
/// line.  perfbench/run.py builds this binary twice (plain and
/// WLANPS_OBS=ON) and turns that line into the benchmark record; the
/// workloads and metrics are described in perfbench/README.md.
///
///   wlanps_perfbench --workload fig2_ipaq|policy_sweep|fed_city|fed_city_sharded
///                    --seed N (--seconds S | --iterations N)
///                    [--layers] [--inject-failure CHECK]
///
/// --layers scopes an obs registry around every run (and attaches a
/// KernelProfile to the Hotspot world) and reports per-layer metrics; it
/// is meant for the WLANPS_OBS=ON build, where the counters exist.
/// --inject-failure makes one output check fail on purpose (throw, ledger,
/// conserved, watchdog, xval, fingerprint) so the harness's own test can
/// prove failures are counted instead of aborting the run.

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <queue>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analytic/backend.hpp"
#include "core/backend.hpp"
#include "core/scenario_spec.hpp"
#include "exp/experiment.hpp"
#include "exp/runner.hpp"
#include "fault/fault.hpp"
#include "fed/federation.hpp"
#include "obs/energy_ledger.hpp"
#include "obs/hooks.hpp"
#include "obs/kernel_profile.hpp"
#include "obs/metrics.hpp"
#include "obs/watchdog.hpp"
#include "policy/policy.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace wlanps;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

// --------------------------------------------------------------------------
// Options
// --------------------------------------------------------------------------

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int iterations = 0;  ///< > 0: run exactly this many, ignoring seconds
    bool layers = false;
    std::string inject;  ///< check to fail on purpose, empty = none

    [[nodiscard]] bool injects(std::string_view check) const { return inject == check; }
};

[[noreturn]] void usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload fig2_ipaq|policy_sweep|fed_city|fed_city_sharded\n"
                 "          --seed N (--seconds S | --iterations N) [--layers]\n"
                 "          [--inject-failure throw|ledger|conserved|watchdog|xval|fingerprint]\n",
                 argv0);
    std::exit(2);
}

Options parse(int argc, char** argv) {
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string_view arg = argv[i];
        auto next = [&]() -> const char* {
            if (i + 1 >= argc) usage(argv[0]);
            return argv[++i];
        };
        if (arg == "--workload") {
            o.workload = next();
        } else if (arg == "--seed") {
            o.seed = std::strtoull(next(), nullptr, 10);
        } else if (arg == "--seconds") {
            o.seconds = std::atof(next());
        } else if (arg == "--iterations") {
            o.iterations = std::atoi(next());
        } else if (arg == "--layers") {
            o.layers = true;
        } else if (arg == "--inject-failure") {
            o.inject = next();
        } else {
            usage(argv[0]);
        }
    }
    static const char* const kChecks[] = {"",         "throw", "ledger",     "conserved",
                                          "watchdog", "xval",  "fingerprint"};
    const bool known_check = std::any_of(std::begin(kChecks), std::end(kChecks),
                                         [&](const char* c) { return o.inject == c; });
    if (o.workload.empty() || !known_check || o.seconds < 0.0 || o.iterations < 0) {
        usage(argv[0]);
    }
    return o;
}

// --------------------------------------------------------------------------
// Statistics, digests, JSON
// --------------------------------------------------------------------------

/// Linear-interpolated percentile (p in [0, 100]) of \p v; NaN when empty.
double percentile(std::vector<double> v, double p) {
    if (v.empty()) return std::numeric_limits<double>::quiet_NaN();
    std::sort(v.begin(), v.end());
    const double rank = p / 100.0 * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(std::floor(rank));
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (rank - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 50.0); }

/// FNV-1a over the fields of simulated outputs.
class Digest {
public:
    void bytes(const void* data, std::size_t n) {
        const auto* p = static_cast<const unsigned char*>(data);
        for (std::size_t i = 0; i < n; ++i) {
            hash_ ^= p[i];
            hash_ *= 1099511628211ULL;
        }
    }
    void u64(std::uint64_t v) { bytes(&v, sizeof v); }
    void f64(double v) { bytes(&v, sizeof v); }
    void str(std::string_view s) {
        u64(s.size());
        bytes(s.data(), s.size());
    }
    [[nodiscard]] std::uint64_t value() const { return hash_; }

    void result(const core::ScenarioResult& r) {
        str(r.label);
        u64(r.clients.size());
        for (const core::ClientMetrics& c : r.clients) {
            f64(c.wnic_average.watts());
            f64(c.wnic_energy.joules());
            f64(c.device_average.watts());
            f64(c.qos);
            u64(c.underruns);
            u64(static_cast<std::uint64_t>(c.received.bits()));
        }
        u64(r.faults_injected);
        u64(r.recovery.total_recoveries());
    }

private:
    std::uint64_t hash_ = 1469598103934665603ULL;
};

std::string json_number(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_string(std::string_view s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

std::string json_object(const std::map<std::string, double>& values) {
    std::string out = "{";
    for (const auto& [key, value] : values) {
        if (out.size() > 1) out += ", ";
        out += json_string(key) + ": " + json_number(value);
    }
    return out + "}";
}

/// Peak resident memory of this process image (VmHWM; NaN if unreadable).
/// Not getrusage: Linux carries ru_maxrss across exec, so it would report
/// the launching interpreter's footprint for a small workload.
double peak_rss_bytes() {
    double bytes = std::numeric_limits<double>::quiet_NaN();
    if (std::FILE* f = std::fopen("/proc/self/status", "r")) {
        char line[256];
        unsigned long long kb = 0;
        while (std::fgets(line, sizeof line, f) != nullptr) {
            if (std::sscanf(line, "VmHWM: %llu kB", &kb) == 1) {
                bytes = static_cast<double>(kb) * 1024.0;
                break;
            }
        }
        std::fclose(f);
    }
    return bytes;
}

double counter_of(const obs::MetricsSnapshot& snapshot, std::string_view key) {
    const obs::Counter* c = snapshot.counter(key);
    return c != nullptr ? static_cast<double>(c->value()) : 0.0;
}

// --------------------------------------------------------------------------
// Host-speed reference
// --------------------------------------------------------------------------

/// reference_kernel_s() on an idle vCPU of the 4-core 2.0 GHz Xeon host
/// the bounds were set on.  Timings are reported at this nominal speed.
constexpr double kReferenceNominalS = 0.019;

/// A fixed event loop owned by the benchmark: a binary heap of timestamped
/// events, random reads and writes in a 1 MiB table, and periodic small
/// allocations and std::function calls, i.e. the simulator's instruction
/// mix without its code.  Timed next to every iteration, it measures how
/// fast the host runs at that moment, so neighbour load on a shared host
/// (which slows whole stretches of a run, CPU time and wall time alike)
/// divides out of the reported timings while a change to the simulator
/// does not.
double reference_kernel_s() {
    static std::vector<std::uint32_t> table = [] {
        std::vector<std::uint32_t> t(1u << 18);
        for (std::uint32_t i = 0; i < t.size(); ++i) t[i] = i * 2654435761u;
        return t;
    }();
    const Clock::time_point t0 = Clock::now();
    using Event = std::pair<std::uint64_t, std::uint32_t>;
    std::priority_queue<Event, std::vector<Event>, std::greater<>> queue;
    std::uint64_t rng = 0x9e3779b97f4a7c15ULL;
    auto next = [&rng] {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        return rng;
    };
    for (std::uint32_t i = 0; i < 4096; ++i) queue.emplace(next() % 100000, i);
    std::uint64_t acc = 0;
    std::vector<std::function<void()>> callbacks;
    for (int n = 0; n < 150000; ++n) {
        const Event e = queue.top();
        queue.pop();
        const std::uint32_t slot =
            (e.second * 40503u + static_cast<std::uint32_t>(acc)) & (table.size() - 1);
        acc += table[slot];
        table[slot] ^= static_cast<std::uint32_t>(e.first);
        if ((n & 15) == 0) {
            auto block = std::make_unique<std::uint64_t[]>(8 + (acc & 31));
            block[0] = acc;
            acc += block[0] >> 3;
            callbacks.emplace_back([&acc, t = e.first] { acc += t; });
            if (callbacks.size() > 64) {
                for (auto& f : callbacks) f();
                callbacks.clear();
            }
        }
        queue.emplace(e.first + 1 + next() % 5000, e.second);
    }
    const double elapsed = seconds_since(t0);
    // Keep the loop's result observable so it cannot be optimized away.
    if (acc == 0x5eed) std::fputc('\n', stderr);
    return elapsed;
}

// --------------------------------------------------------------------------
// Results of one workload run
// --------------------------------------------------------------------------

/// Everything a workload records: pass/fail per scenario run, the
/// end-to-end samples, the simulated outputs, and per-layer samples.
class Report {
public:
    void pass() {
        std::lock_guard<std::mutex> lock(mutex_);
        ++attempted_;
    }
    void fail(const std::string& why) {
        std::lock_guard<std::mutex> lock(mutex_);
        ++attempted_;
        ++failed_;
        if (failures_.size() < 8) failures_.push_back(why);
    }
    /// Count one run whose check messages are \p problems (empty = passed).
    void record(const std::vector<std::string>& problems) {
        if (problems.empty()) {
            pass();
            return;
        }
        std::string why;
        for (const std::string& p : problems) why += (why.empty() ? "" : "; ") + p;
        fail(why);
    }

    void layer(const std::string& key, double value) { layers_[key].push_back(value); }
    void digest(std::uint64_t seed, const std::string& text) {
        std::printf("digest %s seed %llu %s\n", workload.c_str(),
                    static_cast<unsigned long long>(seed), text.c_str());
    }

    std::string workload;
    unsigned threads = 1;
    double client_s_per_iteration = 0.0;  ///< simulated client-seconds per iteration
    std::vector<double> iteration_s;      ///< wall clock of each timed iteration
    std::vector<double> run_ms;           ///< host latency of each scenario run
    std::vector<double> setup_s;          ///< set-up time of each iteration
    std::vector<double> reference_s;      ///< reference_kernel_s() next to each
    double peak_rss_mb = 0.0;             ///< after the first iteration
    std::map<std::string, double> simulated;

    void print(int iterations) const {
        // Each timed sample at nominal host speed: scaled by the reference
        // kernel timed next to it.
        auto nominal = [&](const std::vector<double>& samples) {
            std::vector<double> out;
            for (std::size_t i = 0; i < samples.size(); ++i) {
                out.push_back(samples[i] * kReferenceNominalS / reference_s[i]);
            }
            return out;
        };
        std::vector<double> throughput;
        for (const double s : nominal(iteration_s)) {
            throughput.push_back(client_s_per_iteration / s);
        }
        const std::vector<double> run = nominal(run_ms);
        const double nan = std::numeric_limits<double>::quiet_NaN();
        std::vector<double> raw_throughput;
        for (const double s : iteration_s) raw_throughput.push_back(client_s_per_iteration / s);
        // p90 only where the sample count leaves >= 10 samples beyond it.
        const std::map<std::string, double> timing = {
            {"client_s_per_s", median(throughput)},
            {"run_ms_p50", median(run)},
            {"run_ms_p90", run.size() >= 100 ? percentile(run, 90.0) : nan},
            {"run_samples", static_cast<double>(run.size())},
            {"setup_s", median(nominal(setup_s))},
            {"peak_rss_mb", peak_rss_mb},
            {"host_speed", kReferenceNominalS / median(reference_s)},
            {"raw_client_s_per_s", median(raw_throughput)},
            {"raw_run_ms_p50", median(run_ms)},
            {"raw_setup_s", median(setup_s)},
        };
        std::map<std::string, double> layers;
        for (const auto& [key, samples] : layers_) layers[key] = median(samples);
        std::map<std::string, double> simulated_out = simulated;
        simulated_out["error_rate"] =
            attempted_ == 0 ? 1.0 : static_cast<double>(failed_) / static_cast<double>(attempted_);

        std::string failures = "[";
        for (const std::string& f : failures_) {
            if (failures.size() > 1) failures += ", ";
            failures += json_string(f);
        }
        failures += "]";
        std::printf(
            "result {\"workload\": %s, \"threads\": %u, \"iterations\": %d, "
            "\"attempted\": %llu, \"failed\": %llu, \"failures\": %s, \"timing\": %s, "
            "\"simulated\": %s, \"layers\": %s}\n",
            json_string(workload).c_str(), threads, iterations,
            static_cast<unsigned long long>(attempted_), static_cast<unsigned long long>(failed_),
            failures.c_str(), json_object(timing).c_str(), json_object(simulated_out).c_str(),
            json_object(layers).c_str());
    }

private:
    std::mutex mutex_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
    std::vector<std::string> failures_;
    std::map<std::string, std::vector<double>> layers_;
};

/// Closed loop: the next iteration starts when the previous one returns,
/// until the window closes (at least one iteration) or the fixed count is
/// reached.  Returns the number of iterations run.  The peak RSS is taken
/// after the first iteration: later ones only add heap fragmentation, so
/// a reading at the end would depend on how many fit in the window.
template <class Iteration>
int closed_loop(const Options& o, Report& rep, Iteration&& iteration) {
    const Clock::time_point start = Clock::now();
    int n = 0;
    double last_iteration_s = 0.0;
    while (o.iterations > 0 ? n < o.iterations : (n == 0 || seconds_since(start) < o.seconds)) {
        // Reference samples bracket the iteration, about one per 0.25 s of
        // it, so a long iteration's host speed is sampled as densely as a
        // short one's.
        const int half = std::max(1, static_cast<int>(last_iteration_s / 0.5));
        std::vector<double> references;
        for (int k = 0; k < half; ++k) references.push_back(reference_kernel_s());
        const std::size_t timed = rep.iteration_s.size();
        const Clock::time_point t0 = Clock::now();
        iteration(n);
        last_iteration_s = seconds_since(t0);
        for (int k = 0; k < half; ++k) references.push_back(reference_kernel_s());
        if (rep.iteration_s.size() > timed) rep.reference_s.push_back(median(references));
        if (++n == 1) rep.peak_rss_mb = peak_rss_bytes() / (1024.0 * 1024.0);
    }
    return n;
}

unsigned capped_threads(unsigned want) {
    const unsigned hw = std::thread::hardware_concurrency();
    return std::max(1u, std::min(want, hw == 0 ? 1u : hw));
}

/// Energy-ledger reconciliation: the attributed joules must telescope to
/// the aggregate NIC energy of the clients the result reports.
double ledger_error_j(const obs::EnergyLedger& ledger, const core::ScenarioResult& result) {
    double aggregate = 0.0;
    for (const core::ClientMetrics& c : result.clients) aggregate += c.wnic_energy.joules();
    return std::fabs(ledger.total() - aggregate);
}

constexpr double kLedgerToleranceJ = 1e-9;
/// scripts/check_xval.sh's default bound: the analytic saving may deviate
/// from the simulated one by at most 5% of the simulated value.
constexpr double kXvalRelativeBound = 0.05;

void arm_injected_watchdog(const Options& o, obs::Watchdog& wd) {
    if (o.injects("watchdog")) {
        wd.add_check("perfbench.injected",
                     [] { return std::optional<std::string>("injected violation"); });
    }
}

void check_common(const Options& o, const obs::Watchdog& wd, double ledger_err,
                  std::vector<std::string>& problems) {
    if (o.injects("ledger")) ledger_err += 1.0;
    if (!(ledger_err <= kLedgerToleranceJ)) {
        problems.push_back("ledger does not reconcile (" + json_number(ledger_err) + " J)");
    }
    if (wd.violations() > 0) {
        problems.push_back("watchdog: " + wd.reports().front().check + ": " +
                           wd.reports().front().message);
    }
}

std::string hex64(std::uint64_t v) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
    return buf;
}

// --------------------------------------------------------------------------
// fig2_ipaq: the paper's Figure 2 world, four specs per iteration
// --------------------------------------------------------------------------

/// Figure 2's four configurations: CAM, PSM, BT-active, Hotspot (\p hs).
std::array<core::ScenarioSpec, 4> fig2_specs(const core::StreamConfig& stream,
                                             core::HotspotConfig hs) {
    hs.scheduler = "edf";
    return {core::ScenarioSpec::cam().with_stream(stream),
            core::ScenarioSpec::psm().with_stream(stream),
            core::ScenarioSpec::bt().with_stream(stream),
            core::ScenarioSpec::hotspot().with_stream(stream).with_hotspot(std::move(hs))};
}

double saving_pct(const core::ScenarioResult& r, const core::ScenarioResult& cam) {
    return 100.0 * (1.0 - r.mean_wnic().watts() / cam.mean_wnic().watts());
}

int run_fig2(const Options& o, Report& rep) {
    const core::SimBackend sim;
    static const char* const kRunKeys[4] = {"mac.cam.run_ms", "mac.psm.run_ms", "bt.run_ms",
                                           "core.hotspot.run_ms"};
    core::StreamConfig stream;
    stream.clients = 3;
    stream.duration = Time::from_seconds(300);
    rep.client_s_per_iteration = 4 * stream.clients * stream.duration.to_seconds();

    // The Agrawal-Kumar closed forms are seed-invariant: one evaluation
    // (untimed) is the reference for every iteration's simulated savings.
    std::array<double, 4> model_saving{};
    {
        const analytic::AnalyticBackend closed_form;
        std::array<core::ScenarioResult, 4> model;
        const auto specs = fig2_specs(stream, {});
        for (std::size_t k = 0; k < specs.size(); ++k) model[k] = closed_form.run(specs[k]);
        for (std::size_t k = 0; k < specs.size(); ++k) model_saving[k] = saving_pct(model[k], model[0]);
    }
    std::vector<double> savings;
    double min_qos = 1.0;
    double max_gap = 0.0;

    const int n = closed_loop(o, rep, [&](int i) {
        const std::uint64_t seed = o.seed + static_cast<std::uint64_t>(i);
        std::vector<std::string> problems;
        try {
            const Clock::time_point t0 = Clock::now();
            stream.seed = seed;

            // The Hotspot hooks time the world build (run entry -> on_start)
            // and, in --layers mode, bracket the event loop with a
            // KernelProfile.
            obs::MetricsRegistry hotspot_registry;
            std::optional<obs::KernelProfile> profile;
            Clock::time_point world_built{};
            std::uint64_t loop_ns = 0;
            core::HotspotConfig hs;
            hs.on_start = [&](sim::Simulator& s, core::HotspotServer&,
                              std::vector<core::HotspotClient*>&) {
                world_built = Clock::now();
                if (o.layers) {
                    profile.emplace(hotspot_registry);
                    s.attach_profile(&*profile);
                    loop_ns = obs::KernelProfile::clock_ns();
                }
            };
            hs.inspect = [&](sim::Simulator& s, core::HotspotServer&,
                             std::vector<core::HotspotClient*>&) {
                if (o.layers) {
                    loop_ns = obs::KernelProfile::clock_ns() - loop_ns;
                    s.attach_profile(nullptr);
                }
            };
            const auto specs = fig2_specs(stream, std::move(hs));
            for (const core::ScenarioSpec& spec : specs) spec.validate();
            double setup = seconds_since(t0);

            std::array<core::ScenarioResult, 4> results;
            double runs_s = 0.0;
            double events = 0.0;
            double recon = 0.0;
            for (std::size_t k = 0; k < specs.size(); ++k) {
                obs::EnergyLedger ledger;
                obs::ScopedEnergyLedger ledger_scope(ledger);
                obs::Watchdog wd;
                obs::ScopedWatchdog wd_scope(wd);
                arm_injected_watchdog(o, wd);
                obs::MetricsRegistry local_registry;
                obs::MetricsRegistry& registry = k == 3 ? hotspot_registry : local_registry;
                std::optional<obs::ScopedRegistry> registry_scope;
                if (o.layers) registry_scope.emplace(registry);

                if (k == 1 && o.injects("throw")) throw std::runtime_error("injected throw");
                const Clock::time_point r0 = Clock::now();
                results[k] = sim.run(specs[k], seed);
                const double dt = seconds_since(r0);
                runs_s += dt;
                if (k == 3) setup += std::chrono::duration<double>(world_built - r0).count();
                wd.sweep(specs[k].duration().ns());
                const double err = ledger_error_j(ledger, results[k]);
                recon = std::max(recon, err);
                check_common(o, wd, err, problems);

                if (o.layers) {
                    const obs::MetricsSnapshot snap = registry.snapshot();
                    events += counter_of(snap, "sim.kernel.events_dispatched");
                    rep.layer(kRunKeys[k], 1e3 * dt);
                    if (k == 1) {
                        for (const char* key : {"mac.psm.beacon_wakes", "mac.psm.ps_polls",
                                                "mac.psm.poll_timeouts", "mac.psm.doze_enters"}) {
                            rep.layer(key, counter_of(snap, key));
                        }
                    }
                    if (k == 3) {
                        for (const char* key : {"core.bursts_planned", "core.bursts_completed",
                                                "core.deadline_misses",
                                                "core.interface_switches"}) {
                            rep.layer(key, counter_of(snap, key));
                        }
                        double dispatched_ns = 0.0;
                        for (const char* key :
                             {"sim.kernel.dispatch_ns.fast", "sim.kernel.dispatch_ns.handle",
                              "sim.kernel.dispatch_ns.periodic"}) {
                            if (const obs::Histogram* h = snap.histogram(key)) {
                                dispatched_ns += h->sum();
                            }
                        }
                        if (loop_ns > 0) {
                            rep.layer("sim.kernel_self_pct",
                                      100.0 * (1.0 - dispatched_ns / static_cast<double>(loop_ns)));
                        }
                    }
                }
            }
            rep.iteration_s.push_back(seconds_since(t0));
            rep.run_ms.push_back(1e3 * runs_s);
            rep.setup_s.push_back(setup);
            if (o.layers) {
                rep.layer("sim.events", events);
                rep.layer("sim.ns_per_event", 1e9 * runs_s / events);
                rep.layer("phy.ledger_recon_err_j", recon);
            }

            // Outside the timed region: the paper's numbers and the
            // closed-form cross-check.
            savings.push_back(saving_pct(results[3], results[0]));
            Digest digest;
            for (const core::ScenarioResult& r : results) {
                min_qos = std::min(min_qos, r.min_qos());
                digest.result(r);
            }
            rep.digest(seed, hex64(digest.value()));
            for (std::size_t k = 1; k < results.size(); ++k) {
                const double sim_saving = saving_pct(results[k], results[0]);
                double gap = std::fabs(sim_saving - model_saving[k]);
                if (o.injects("xval")) gap += 100.0;
                max_gap = std::max(max_gap, gap);
                if (!(gap <= kXvalRelativeBound * std::fabs(sim_saving))) {
                    problems.push_back(results[k].label + " sim/analytic saving gap " +
                                       json_number(gap) + " pp");
                }
            }
        } catch (const std::exception& e) {
            problems.push_back(std::string("threw: ") + e.what());
        }
        rep.record(problems);
    });
    rep.simulated["wnic_saving_pct"] = median(savings);
    rep.simulated["qos_min_pct"] = 100.0 * min_qos;
    rep.simulated["analytic_gap_pp"] = max_gap;
    return n;
}

// --------------------------------------------------------------------------
// policy_sweep: ab14's policy x fault grid, 2 and 8 stations, on the runner
// --------------------------------------------------------------------------

struct SweepCell {
    std::string label;  ///< "<policy>/<faults>/<stations>"
    std::string kind;
    int stations = 0;
    core::ScenarioSpec spec;
};

std::vector<std::pair<std::string, fault::FaultPlan>> fault_axis() {
    std::vector<std::pair<std::string, fault::FaultPlan>> out;
    out.emplace_back("clean", fault::FaultPlan{});
    fault::FaultPlan mild;
    mild.corruption(Time::from_seconds(10), Time::from_seconds(10), 0.25);
    out.emplace_back("mild", mild);
    fault::FaultPlan harsh;
    harsh.corruption(Time::from_seconds(10), Time::from_seconds(15), 0.5)
        .blackout(Time::from_seconds(15), Time::from_seconds(3), 0, fault::FaultSpec::Itf::wlan);
    out.emplace_back("harsh", harsh);
    return out;
}

int run_policy_sweep(const Options& o, Report& rep) {
    static const policy::PolicyKind kKinds[] = {policy::PolicyKind::cam, policy::PolicyKind::psm,
                                                policy::PolicyKind::micro_nap,
                                                policy::PolicyKind::pamas};
    static const int kStations[] = {2, 8};
    constexpr std::size_t kSeedsPerIteration = 2;
    const Time duration = Time::from_seconds(60);
    const core::SimBackend backend;
    const exp::ExperimentRunner runner(capped_threads(4));
    rep.threads = runner.threads();

    double min_qos = 1.0;

    const int n = closed_loop(o, rep, [&](int i) {
        const std::uint64_t first_seed =
            o.seed + static_cast<std::uint64_t>(i) * kSeedsPerIteration;
        const Clock::time_point t0 = Clock::now();
        std::vector<SweepCell> cells;
        std::vector<std::string> labels;
        for (const policy::PolicyKind kind : kKinds) {
            for (const auto& [fault_label, plan] : fault_axis()) {
                for (const int stations : kStations) {
                    const std::string name = policy::to_string(kind);
                    SweepCell cell{name + "/" + fault_label + "/" + std::to_string(stations),
                                   name, stations,
                                   core::ScenarioSpec::cam()
                                       .with_power_policy(policy::PowerPolicyConfig::of(kind))
                                       .with_clients(stations)
                                       .with_duration(duration)
                                       .with_fault_plan(plan)};
                    cell.spec.validate();
                    labels.push_back(cell.label);
                    cells.push_back(std::move(cell));
                }
            }
        }
        Clock::time_point epoch{};
        auto spec = exp::ExperimentSpec{}
                        .with_run([&](const exp::ParamPoint& point, std::uint64_t seed) {
                            const double start_s = seconds_since(epoch);
                            const SweepCell& cell = cells[point.index];
                            std::vector<std::string> problems;
                            Digest digest;
                            double qos = 1.0;
                            double faults = 0.0;
                            double run_ms = 0.0;
                            try {
                                obs::EnergyLedger ledger;
                                obs::ScopedEnergyLedger ledger_scope(ledger);
                                obs::Watchdog wd;
                                obs::ScopedWatchdog wd_scope(wd);
                                arm_injected_watchdog(o, wd);
                                if (o.injects("throw") && point.index == 0) {
                                    throw std::runtime_error("injected throw");
                                }
                                const Clock::time_point r0 = Clock::now();
                                const core::ScenarioResult r = backend.run(cell.spec, seed);
                                run_ms = 1e3 * seconds_since(r0);
                                wd.sweep(cell.spec.duration().ns());
                                check_common(o, wd, ledger_error_j(ledger, r), problems);
                                qos = r.min_qos();
                                faults = static_cast<double>(r.faults_injected);
                                digest.result(r);
                            } catch (const std::exception& e) {
                                problems.push_back(std::string("threw: ") + e.what());
                            }
                            if (!problems.empty()) {
                                problems.front() = cell.label + ": " + problems.front();
                            }
                            rep.record(problems);
                            return exp::Metrics{
                                {"run_ms", run_ms},
                                {"start_s", start_s},
                                {"end_s", seconds_since(epoch)},
                                {"qos", qos},
                                {"faults", faults},
                                {"digest_hi", static_cast<double>(digest.value() >> 32)},
                                {"digest_lo", static_cast<double>(digest.value() & 0xffffffffULL)},
                            };
                        })
                        .with_points(labels)
                        .with_seed_range(first_seed, kSeedsPerIteration);
        spec.validate();
        const double setup = seconds_since(t0);
        epoch = Clock::now();
        exp::ExperimentResult result;
        try {
            result = runner.run(spec);
        } catch (const std::exception& e) {
            rep.fail(std::string("runner threw: ") + e.what());
            return;
        }
        const double runner_s = seconds_since(epoch);
        rep.iteration_s.push_back(seconds_since(t0));
        // One scenario run of this workload is the whole sweep: the median
        // of single cells would fall between the 2- and 8-station clusters
        // and jump with the mix.
        rep.run_ms.push_back(1e3 * runner_s);
        rep.setup_s.push_back(setup);

        double client_s = 0.0;
        double busy_s = 0.0;
        double first_start = std::numeric_limits<double>::infinity();
        double last_end = 0.0;
        double events = 0.0;
        double run_s = 0.0;
        double faults = 0.0;
        std::map<std::string, std::pair<double, double>> per_kind;  // (run ns, events)
        Digest digest;
        for (const exp::RunRecord& rec : result.runs) {
            auto metric = [&](std::string_view name) {
                for (const auto& [key, value] : rec.metrics) {
                    if (key == name) return value;
                }
                return 0.0;
            };
            const SweepCell& cell = cells[rec.point];
            const double ms = metric("run_ms");
            client_s += cell.stations * duration.to_seconds();
            busy_s += metric("end_s") - metric("start_s");
            first_start = std::min(first_start, metric("start_s"));
            last_end = std::max(last_end, metric("end_s"));
            min_qos = std::min(min_qos, metric("qos"));
            faults += metric("faults");
            digest.f64(metric("digest_hi"));
            digest.f64(metric("digest_lo"));
            const double ev = counter_of(rec.obs, "sim.kernel.events_dispatched");
            events += ev;
            run_s += ms / 1e3;
            if (o.layers) rep.layer("policy." + cell.kind + ".run_ms", ms);
            per_kind[cell.kind].first += ms * 1e6;
            per_kind[cell.kind].second += ev;
        }
        rep.client_s_per_iteration = client_s;
        rep.digest(first_seed, hex64(digest.value()));
        if (o.layers) {
            const unsigned used = static_cast<unsigned>(
                std::min<std::size_t>(runner.threads(), result.runs.size()));
            rep.layer("exp.busy_pct", 100.0 * busy_s / (used * runner_s));
            rep.layer("exp.first_run_ms", 1e3 * first_start);
            rep.layer("exp.reduce_ms", 1e3 * (runner_s - last_end));
            rep.layer("sim.events", events);
            rep.layer("sim.ns_per_event", 1e9 * run_s / events);
            rep.layer("fault.injected", faults);
            for (const auto& [kind, ns_events] : per_kind) {
                rep.layer("policy." + kind + ".ns_per_event", ns_events.first / ns_events.second);
            }
        }
    });
    rep.simulated["qos_min_pct"] = 100.0 * min_qos;
    return n;
}

// --------------------------------------------------------------------------
// fed_city / fed_city_sharded: 10^5 clients on ~3,100 APs
// --------------------------------------------------------------------------

core::ScenarioSpec fed_city_spec(std::uint64_t seed, int threads) {
    core::StreamConfig stream;
    stream.clients = 100000;
    stream.duration = Time::from_seconds(120);
    stream.seed = seed;
    core::FederationConfig fed;
    fed.with_aps(3125)
        .with_shards(4)
        .with_threads(threads)
        .with_roaming(Time::from_seconds(45))
        .with_admission(core::AdmissionPolicy::defer)
        .with_capacity_per_ap(36);
    // Calm Poisson arrivals, then an MMPP flash crowd over 60-120 s.
    fed.base_arrival_hz = 0.11;
    fed.flash_arrival_hz = 0.35;
    return core::ScenarioSpec::federation().with_stream(stream).with_federation(fed);
}

struct FedOutcome {
    std::vector<std::string> problems;
    std::uint64_t fingerprint = 0;
};

/// One federation run: set-up, run, checks.  Timed samples go to \p rep
/// when \p timed; the inline reference of the sharded workload is not.
FedOutcome fed_iteration(const Options& o, Report& rep, std::uint64_t seed, int threads,
                         bool timed, bool sharded, double rss_before) {
    FedOutcome out;
    try {
        obs::MetricsRegistry registry;
        std::optional<obs::ScopedRegistry> registry_scope;
        if (o.layers && timed) registry_scope.emplace(registry);
        const Clock::time_point t0 = Clock::now();
        double run_s = 0.0;
        double setup = 0.0;
        fed::FederationResult fr;
        obs::Watchdog wd;
        arm_injected_watchdog(o, wd);
        double ledger_err = 0.0;
        {
            const core::ScenarioSpec spec = fed_city_spec(seed, threads);
            spec.validate();
            fed::Federation federation(spec, seed);
            setup = seconds_since(t0);
            if (o.injects("throw") && timed) throw std::runtime_error("injected throw");
            obs::EnergyLedger ledger;
            obs::ScopedEnergyLedger ledger_scope(ledger);
            obs::ScopedWatchdog wd_scope(wd);
            const Clock::time_point r0 = Clock::now();
            fr = federation.run();
            run_s = seconds_since(r0);
            ledger_err = ledger_error_j(ledger, fr.scenario);
        }
        const double wall = seconds_since(t0);

        check_common(o, wd, ledger_err, out.problems);
        fed::PopulationSummary pop = fr.population;
        if (o.injects("conserved")) ++pop.bursts_shed;
        if (!pop.conserved()) out.problems.push_back("burst conservation violated");
        out.fingerprint = pop.fingerprint;
        if (o.injects("fingerprint") && timed) out.fingerprint ^= 1;

        if (!timed) return out;
        rep.iteration_s.push_back(wall);
        rep.run_ms.push_back(1e3 * run_s);
        rep.setup_s.push_back(setup);
        rep.simulated["burst_shed_ratio"] = static_cast<double>(pop.bursts_shed) /
                                            static_cast<double>(pop.bursts_admitted);
        Digest digest;
        digest.result(fr.scenario);
        rep.digest(seed, hex64(digest.value()) + " fingerprint " + hex64(pop.fingerprint));
        if (o.layers) {
            const double events = static_cast<double>(fr.health.events);
            rep.layer("sim.events", events);
            rep.layer("sim.ns_per_event", 1e9 * run_s / events);
            rep.layer("fed.run_s", run_s);
            rep.layer("fed.arrivals", static_cast<double>(pop.arrivals));
            rep.layer("fed.roams", static_cast<double>(pop.roams));
            rep.layer("fed.deferred", static_cast<double>(pop.deferred));
            rep.layer("fed.bursts_admitted", static_cast<double>(pop.bursts_admitted));
            rep.layer("fed.bursts_completed", static_cast<double>(pop.bursts_completed));
            rep.layer("fed.bursts_shed", static_cast<double>(pop.bursts_shed));
            rep.layer("fed.ns_per_burst", 1e9 * run_s / static_cast<double>(pop.bursts_admitted));
            if (rep.iteration_s.size() == 1) {
                rep.layer("fed.rss_bytes_per_row",
                          (peak_rss_bytes() - rss_before) / static_cast<double>(pop.population));
            }
            if (sharded) {
                const obs::HealthReport& h = fr.health;
                rep.layer("shard.quanta", static_cast<double>(h.quanta));
                rep.layer("shard.idle_jumps", static_cast<double>(h.idle_jumps));
                rep.layer("shard.imbalance", h.imbalance_index);
                rep.layer("shard.barrier_wait_ms", static_cast<double>(h.barrier_wait_ns) / 1e6);
                rep.layer("shard.dispatch_ms", static_cast<double>(h.dispatch_ns) / 1e6);
                rep.layer("shard.flush_ms", static_cast<double>(h.flush_ns) / 1e6);
            }
        }
    } catch (const std::exception& e) {
        out.problems.push_back(std::string("threw: ") + e.what());
    }
    return out;
}

int run_fed(const Options& o, Report& rep, bool sharded) {
    const double rss_before = peak_rss_bytes();
    const int threads = sharded ? static_cast<int>(capped_threads(4)) : 0;
    rep.threads = static_cast<unsigned>(std::max(threads, 1));
    rep.client_s_per_iteration = 100000 * 120.0;
    std::vector<FedOutcome> runs;
    const int n = closed_loop(o, rep, [&](int) {
        runs.push_back(fed_iteration(o, rep, o.seed, threads, true, sharded, rss_before));
    });
    // Every iteration runs the same seed, so every fingerprint must match
    // the reference: the inline run for the sharded workload (run after
    // the window, untimed), the first iteration for the inline workload.
    std::optional<std::uint64_t> reference;
    if (sharded) {
        const FedOutcome ref = fed_iteration(o, rep, o.seed, 0, false, false, rss_before);
        reference = ref.problems.empty() ? ref.fingerprint : 0;
    }
    for (FedOutcome& run : runs) {
        if (!reference && run.problems.empty()) reference = run.fingerprint;
        if (reference && run.fingerprint != *reference) {
            run.problems.push_back("fingerprint " + hex64(run.fingerprint) + " != reference " +
                                   hex64(*reference));
        }
        rep.record(run.problems);
    }
    return n;
}

}  // namespace

int main(int argc, char** argv) {
    const Options o = parse(argc, argv);
#if defined(WLANPS_OBS_ENABLED)
    constexpr bool kObsBuild = true;
#else
    constexpr bool kObsBuild = false;
#endif
    std::printf("build {\"build_type\": %s, \"compiler\": %s, \"wlanps_obs\": %s}\n",
                json_string(WLANPS_PERFBENCH_BUILD_TYPE).c_str(),
                json_string(WLANPS_PERFBENCH_COMPILER).c_str(), kObsBuild ? "true" : "false");
    Report rep;
    rep.workload = o.workload;
    int iterations = 0;
    if (o.workload == "fig2_ipaq") {
        iterations = run_fig2(o, rep);
    } else if (o.workload == "policy_sweep") {
        iterations = run_policy_sweep(o, rep);
    } else if (o.workload == "fed_city") {
        iterations = run_fed(o, rep, false);
    } else if (o.workload == "fed_city_sharded") {
        iterations = run_fed(o, rep, true);
    } else {
        usage(argv[0]);
    }
    rep.print(iterations);
    std::fflush(stdout);
    return 0;
}
