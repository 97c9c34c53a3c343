#include "fed/federation.hpp"

#include <algorithm>
#include <cmath>

#include "fed/ap_cell.hpp"
#include "obs/energy_ledger.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics_stream.hpp"
#include "phy/calibration.hpp"
#include "sim/assert.hpp"
#include "sim/digest.hpp"

namespace wlanps::fed {

namespace {

// Root fork ids for federation cells (piconets use 1000+, faults 900+).
constexpr std::uint64_t kCellStream = 2000;

}  // namespace

/// Open metrics stream plus the series ids it registered.
class StreamState {
public:
    explicit StreamState(const std::string& path) : writer(path) {
        associated = writer.define_series("fed.associated");
        arrivals = writer.define_series("fed.arrivals");
        departures = writer.define_series("fed.departures");
        queue_depth = writer.define_series("fed.queue_depth");
    }

    obs::MetricsStreamWriter writer;
    std::uint32_t associated = 0;
    std::uint32_t arrivals = 0;
    std::uint32_t departures = 0;
    std::uint32_t queue_depth = 0;
};

Federation::Federation(const core::ScenarioSpec& spec)
    : Federation(spec, spec.stream().seed) {}

Federation::Federation(const core::ScenarioSpec& spec, std::uint64_t seed)
    : config_(spec.federation_config()), stream_(spec.stream()), label_(spec.label()) {
    WLANPS_REQUIRE_MSG(spec.policy() == core::Policy::federation,
                       "Federation requires a Policy::federation spec");
    stream_.seed = seed;
    sim::ShardedConfig kcfg;
    kcfg.shards = static_cast<std::size_t>(config_.shards);
    kcfg.threads = static_cast<std::size_t>(config_.threads);
    kcfg.lookahead = core::kShardLookahead;
    build_cells();  // sizes the population the mailboxes must absorb
    // Worst case every client roams inside one quantum.
    kcfg.mailbox_capacity = std::max<std::size_t>(4096, population_);
    kernel_ = std::make_unique<sim::ShardedSimulator>(kcfg);
#if defined(WLANPS_OBS_ENABLED)
    // Per-quantum attribution whenever someone is listening (a scoped
    // registry or an explicit health file); unattached kernels skip the
    // timing reads entirely.
    if (obs::current() != nullptr || !config_.health_path.empty()) {
        telemetry_ = std::make_unique<obs::ShardTelemetry>(kcfg.shards);
        kernel_->attach_telemetry(telemetry_.get());
    }
#endif
    if (!config_.stream_path.empty()) {
        stream_state_ = std::make_unique<StreamState>(config_.stream_path);
    }
    plan_faults();
    for (auto& cell : cells_) cell->start();
}

Federation::~Federation() = default;

void Federation::build_cells() {
    sim::Random root(stream_.seed);
    const auto aps = static_cast<std::uint32_t>(config_.aps);
    cells_.reserve(aps);
    for (std::uint32_t ap = 0; ap < aps; ++ap) {
        cells_.push_back(std::make_unique<ApCell>(
            *this, static_cast<std::uint16_t>(ap), root.fork(kCellStream + ap)));
    }

    // Plan every cell's arrival schedule up front: arrival ids are dense
    // per-cell ranges fixed at build time, so id assignment never depends
    // on run-time thread interleaving.
    const double dur_s = stream_.duration.to_seconds();
    const double flash_s = std::min(config_.flash_duration.to_seconds(), dur_s);
    const double expected_per_cell =
        config_.base_arrival_hz * dur_s + config_.flash_arrival_hz * flash_s;
    const auto cap_per_cell = static_cast<std::size_t>(4.0 * expected_per_cell) + 64;

    const auto n0 = static_cast<std::uint32_t>(stream_.clients);
    std::uint32_t next_id = n0;
    for (auto& cell : cells_) {
        const std::size_t planned = cell->plan_arrivals(next_id, cap_per_cell);
        next_id += static_cast<std::uint32_t>(planned);
        arrivals_truncated_ += cell->truncated_arrivals();
    }
    population_ = next_id;
    slab_ = std::make_unique<ClientSlab>(std::max<std::size_t>(population_, 1));
    WLANPS_REQUIRE_MSG(config_.sample_stride >= 1, "sample_stride must be >= 1");
    const auto stride = static_cast<std::size_t>(config_.sample_stride);
    sampled_causes_.assign(population_ == 0 ? 0 : (population_ - 1) / stride + 1,
                           {0.0, 0.0, 0.0});

    // Initial population: round-robin home cells; delayed_registration
    // faults are consumed here as late-join times (fault-plan client ids
    // are 1-based).
    const auto& plan = stream_.fault_plan;
    for (std::uint32_t id = 0; id < n0; ++id) {
        const auto home = static_cast<std::uint16_t>(id % aps);
        slab_->home_ap[id] = home;
        slab_->current_ap[id].store(home, std::memory_order_relaxed);
        cells_[home]->add_initial(id, plan.registration_at(id + 1));
    }
    // Planned arrivals: home is the cell that drew them.
    for (std::uint32_t ap = 0; ap < aps; ++ap) {
        const ApCell& cell = *cells_[ap];
        for (std::size_t k = 0; k < cell.planned_at_.size(); ++k) {
            const std::uint32_t id = cell.first_id_ + static_cast<std::uint32_t>(k);
            slab_->home_ap[id] = static_cast<std::uint16_t>(ap);
            slab_->current_ap[id].store(static_cast<std::uint16_t>(ap),
                                        std::memory_order_relaxed);
        }
    }
}

void Federation::plan_faults() {
    for (const fault::FaultSpec& spec : stream_.fault_plan.specs()) {
        if (spec.kind == fault::FaultKind::delayed_registration) continue;  // at build
        const std::uint32_t row = spec.client == 0 ? 0 : spec.client - 1;
        if (spec.client != 0 && row >= population_) continue;  // no such client
        for (int k = 0; k < std::max(spec.repeat, 1); ++k) {
            const Time at = Time::from_ns(spec.at.ns() + spec.period.ns() * k);
            if (at >= stream_.duration) break;
            const Time until =
                spec.duration.is_zero() ? Time::max() : at + spec.duration;
            switch (spec.kind) {
                case fault::FaultKind::nic_lockup:
                    if (spec.client == 0) {
                        // Population-wide: one event per shard, applied
                        // owner-side to the shard's cells.
                        for (std::size_t shard = 0; shard < shard_count(); ++shard) {
                            kernel_->shard(shard).post_at(
                                at, [this, shard, until, p = spec.probability] {
                                    lockup_shard(shard, p, until);
                                });
                        }
                    } else {
                        // Deterministic targeting: the fault is pinned to the
                        // client's home cell; if the target roamed away it is
                        // counted as missed, never chased across shards.
                        ApCell* cell = cells_[slab_->home_ap[row]].get();
                        kernel_->shard(cell->shard_).post_at(
                            at, [cell, row, until, p = spec.probability] {
                                if (!cell->fault_roll(p)) return;
                                cell->count_fault(cell->lockup_one(row, until));
                            });
                    }
                    break;
                case fault::FaultKind::client_crash: {
                    ApCell* cell = cells_[slab_->home_ap[row]].get();
                    kernel_->shard(cell->shard_).post_at(
                        at, [cell, row, down = spec.duration, p = spec.probability] {
                            if (!cell->fault_roll(p)) return;
                            cell->count_fault(cell->crash_one(row, down));
                        });
                    break;
                }
                case fault::FaultKind::silent_leave: {
                    ApCell* cell = cells_[slab_->home_ap[row]].get();
                    kernel_->shard(cell->shard_).post_at(
                        at, [cell, row, p = spec.probability] {
                            if (!cell->fault_roll(p)) return;
                            cell->count_fault(cell->leave_one(row));
                        });
                    break;
                }
                default:
                    // Excluded by ScenarioSpec::validate for federation runs.
                    break;
            }
        }
    }
}

void Federation::lockup_shard(std::size_t shard, double probability, Time until) {
    // Roll each of the shard's cells in cell order (each on its own fault
    // stream), then lock up the hit cells' associated rows in one sweep.
    std::vector<std::uint8_t> hit(cells_.size(), 0);
    bool any = false;
    for (std::size_t ap = shard; ap < cells_.size(); ap += shard_count()) {
        ApCell& cell = *cells_[ap];
        if (!cell.fault_roll(probability)) continue;
        hit[ap] = 1;
        any = true;
        cell.count_fault(true);
    }
    if (!any) return;
    for (std::size_t i = 0; i < population_; ++i) {
        // Acquire so a row admitted on another shard is seen with its
        // matching current_ap (see client_slab.hpp); only this shard's
        // cells are ever hit, so only its own rows are written.
        const auto st = static_cast<ClientState>(slab_->state[i].load(std::memory_order_acquire));
        if (st != ClientState::associated) continue;
        if (hit[slab_->current_ap[i].load(std::memory_order_relaxed)] == 0) continue;
        slab_->lockup_until_ns[i] = std::max(slab_->lockup_until_ns[i], until.ns());
    }
}

void Federation::post_handoff(std::uint32_t from_ap, std::uint32_t to_ap,
                              std::uint32_t id) {
    const std::size_t from = shard_of_ap(from_ap);
    const std::size_t to = shard_of_ap(to_ap);
    // Same lookahead whether or not the cells share a shard, so the event
    // schedule is independent of the cell->shard layout.
    const Time when = kernel_->shard(from).now() + core::kShardLookahead;
    ApCell* dest = cells_[to_ap].get();
    if (from == to) {
        kernel_->shard(from).post_at(when, [dest, id] { dest->handoff_arrive(id); });
    } else {
        kernel_->post_cross(from, to, when, [dest, id] { dest->handoff_arrive(id); });
    }
}

double* Federation::sampled_causes(std::uint32_t id) {
    const auto stride = static_cast<std::uint32_t>(config_.sample_stride);
    if (id % stride != 0) return nullptr;
    return sampled_causes_[id / stride].data();
}

void Federation::write_stream_samples(Time at) {
    if (!stream_state_) return;
    std::uint64_t assoc = 0;
    std::uint64_t arrivals = 0;
    std::uint64_t departures = 0;
    std::uint64_t queued = 0;
    for (const auto& cell : cells_) {
        assoc += static_cast<std::uint64_t>(std::max(cell->associated(), 0));
        arrivals += cell->arrivals();
        departures += cell->departures();
        queued += cell->queue_.size();
    }
    auto& st = *stream_state_;
    const auto t_ns = static_cast<std::uint64_t>(at.ns());
    st.writer.sample(st.associated, t_ns, static_cast<double>(assoc));
    st.writer.sample(st.arrivals, t_ns, static_cast<double>(arrivals));
    st.writer.sample(st.departures, t_ns, static_cast<double>(departures));
    st.writer.sample(st.queue_depth, t_ns, static_cast<double>(queued));
}

PopulationSummary Federation::summarize() const {
    PopulationSummary p;
    p.population = population_;
    p.arrivals_truncated = arrivals_truncated_;
    for (const auto& cell : cells_) {
        p.arrivals += cell->arrivals();
        p.departures += cell->departures();
        p.rejected += cell->rejected();
        p.deferred += cell->deferred();
        p.degraded += cell->degraded();
        p.faults_injected += cell->faults_injected();
        p.faults_missed += cell->faults_missed();
        p.peak_association = std::max(p.peak_association, cell->peak_association());
    }

    sim::Fnv1a h;
    for (std::size_t i = 0; i < population_; ++i) {
        p.bursts_admitted += slab_->bursts_admitted[i];
        p.bursts_completed += slab_->bursts_completed[i];
        p.bursts_shed += slab_->bursts_shed[i];
        p.delivered_bits += slab_->delivered_bits[i];
        p.energy_j += slab_->energy_j[i];
        p.roams += slab_->roams[i];
        p.handoff_failures += slab_->handoff_failures[i];

        h.f64(slab_->energy_j[i]);
        h.u64(slab_->delivered_bits[i]);
        h.u64((static_cast<std::uint64_t>(slab_->bursts_admitted[i]) << 32) |
              slab_->bursts_completed[i]);
        h.u64((static_cast<std::uint64_t>(slab_->bursts_shed[i]) << 32) |
              (static_cast<std::uint64_t>(slab_->roams[i]) << 16) | slab_->handoff_failures[i]);
        h.u64((static_cast<std::uint64_t>(slab_->state_of(i)) << 32) |
              (static_cast<std::uint64_t>(slab_->current_ap[i].load(std::memory_order_relaxed))
               << 16) |
              slab_->epoch_of(i));
    }
    h.u64(p.arrivals).u64(p.departures).u64(p.rejected).u64(p.deferred).u64(p.degraded);
    h.u64(p.faults_injected).u64(p.faults_missed).u64(p.peak_association);
    p.fingerprint = h.value();
    return p;
}

void Federation::register_watchdog_checks(obs::Watchdog& watchdog) {
    // Burst conservation, continuously: mid-run some admitted bursts are
    // still in flight, so the sweep invariant is completed + shed <=
    // admitted (the final sweep demands equality).  Plain columns are
    // safe to scan: sweeps run between chunks with the workers parked.
    watchdog.add_check("fed.conservation", [this]() -> std::optional<std::string> {
        std::uint64_t admitted = 0;
        std::uint64_t resolved = 0;
        for (std::size_t i = 0; i < population_; ++i) {
            admitted += slab_->bursts_admitted[i];
            resolved += static_cast<std::uint64_t>(slab_->bursts_completed[i]) +
                        slab_->bursts_shed[i];
        }
        if (resolved <= admitted) return std::nullopt;
        return "bursts completed+shed " + std::to_string(resolved) +
               " exceeds admitted " + std::to_string(admitted);
    });
    // Slab epoch monotonicity: epochs only ever bump forward; a rewind
    // means torn ownership transfer.  Relaxed loads — epochs are atomic
    // precisely so non-owners may read them.
    watchdog.add_check(
        "fed.slab_epoch",
        [this, prev = std::vector<std::uint16_t>(population_, 0)]() mutable
        -> std::optional<std::string> {
            for (std::size_t i = 0; i < population_; ++i) {
                const std::uint16_t now_epoch = slab_->epoch_of(i);
                if (now_epoch < prev[i]) {
                    return "client " + std::to_string(i) + " epoch rewound " +
                           std::to_string(prev[i]) + " -> " + std::to_string(now_epoch);
                }
                prev[i] = now_epoch;
            }
            return std::nullopt;
        });
    // Slab state validity: the state byte must be a ClientState.
    watchdog.add_check("fed.slab_state", [this]() -> std::optional<std::string> {
        for (std::size_t i = 0; i < population_; ++i) {
            const auto raw = static_cast<std::uint8_t>(slab_->state_of(i));
            if (raw > static_cast<std::uint8_t>(ClientState::departed)) {
                return "client " + std::to_string(i) + " state byte " +
                       std::to_string(raw) + " out of range";
            }
        }
        return std::nullopt;
    });
}

void Federation::register_final_checks(obs::Watchdog& watchdog,
                                       const PopulationSummary& pop) {
    // Exact conservation at teardown — the invariant WLANPS_REQUIRE used
    // to crash on; with a watchdog attached it reports instead.
    watchdog.add_check("fed.conservation_final",
                       [pop]() -> std::optional<std::string> {
                           if (pop.conserved()) return std::nullopt;
                           return "admitted " + std::to_string(pop.bursts_admitted) +
                                  " != completed " + std::to_string(pop.bursts_completed) +
                                  " + shed " + std::to_string(pop.bursts_shed);
                       });
    // Energy-ledger telescoping: for every stride-sampled client, the
    // cause-resolved cells must telescope back to the slab's accrued
    // energy within 1e-9 J (the ledger reconciliation contract).
    watchdog.add_check("fed.ledger_drift", [this]() -> std::optional<std::string> {
        const auto stride = static_cast<std::uint32_t>(config_.sample_stride);
        for (std::uint32_t id = 0; id < population_; id += stride) {
            const auto& causes = sampled_causes_[id / stride];
            const double telescoped = causes[0] + causes[1] + causes[2];
            const double drift = std::abs(telescoped - slab_->energy_j[id]);
            if (drift >= 1e-9) {
                return "client " + std::to_string(id) + " cause sum drifts " +
                       std::to_string(drift) + " J from accrued energy";
            }
        }
        return std::nullopt;
    });
    // Fingerprint stability: re-reducing the parked population must
    // reproduce the fingerprint bit for bit.  A mismatch means state
    // mutated after the barrier — exactly the class of bug strict mode
    // forbids.
    watchdog.add_check("fed.fingerprint",
                       [this, pop]() -> std::optional<std::string> {
                           const std::uint64_t again = summarize().fingerprint;
                           if (again == pop.fingerprint) return std::nullopt;
                           return "population fingerprint unstable across reductions";
                       });
}

obs::HealthReport Federation::build_health(const PopulationSummary& pop,
                                           const obs::Watchdog* watchdog) const {
    obs::HealthReport health;
    health.scope = "federation";
    kernel_->fill_health(health);
    health.per_cell.reserve(cells_.size());
    for (std::uint32_t ap = 0; ap < cells_.size(); ++ap) {
        const ApCell& cell = *cells_[ap];
        obs::CellHealth c;
        c.cell = ap;
        c.shard = static_cast<std::uint32_t>(shard_of_ap(ap));
        c.arrivals = cell.arrivals();
        c.departures = cell.departures();
        c.rejected = cell.rejected();
        c.deferred = cell.deferred();
        c.degraded = cell.degraded();
        c.faults_injected = cell.faults_injected();
        c.faults_missed = cell.faults_missed();
        c.peak_association = cell.peak_association();
        health.per_cell.push_back(c);
    }
    health.has_population = true;
    health.population = pop.population;
    health.bursts_admitted = pop.bursts_admitted;
    health.bursts_completed = pop.bursts_completed;
    health.bursts_shed = pop.bursts_shed;
    health.conserved = pop.conserved();
    health.fingerprint = pop.fingerprint;
    if (watchdog != nullptr) health.set_watchdog(*watchdog);
    return health;
}

FederationResult Federation::run() {
    const Time end = stream_.duration;
    obs::Watchdog* wd = obs::current_watchdog();
    if (wd != nullptr) register_watchdog_checks(*wd);
    if (stream_state_ || wd != nullptr) {
        // Chunked horizons: run_until clamps each quantum, so strict-mode
        // results are bit-identical to one uninterrupted run.  The chunk
        // boundaries double as watchdog sweeps: workers are parked, so
        // the checks may scan every shard's state.
        const std::int64_t chunk = std::max<std::int64_t>(end.ns() / 64, 1);
        Time t = Time::zero();
        while (t < end) {
            t = Time::from_ns(std::min(end.ns(), t.ns() + chunk));
            kernel_->run_until(t);
            write_stream_samples(t);
            if (wd != nullptr) wd->sweep(t.ns());
        }
    } else {
        kernel_->run_until(end);
    }
    // Workers are parked: the owning thread may touch every row.  Cells
    // shed the bursts they still hold; then one slab pass accrues every
    // resident row to the horizon through the cell in its current_ap
    // column (a roamer's handoff was still in flight: it idle-scans to the
    // end).  Rows accrue independently, so the pass order is immaterial.
    for (auto& cell : cells_) cell->teardown();
    for (std::uint32_t id = 0; id < population_; ++id) {
        switch (slab_->state_of(id)) {
            case ClientState::associated:
            case ClientState::deferred:
            case ClientState::roaming:
                cells_[slab_->current_ap[id].load(std::memory_order_relaxed)]->accrue(id, end);
                break;
            default:
                break;
        }
    }
    const PopulationSummary pop = summarize();
    if (wd != nullptr) {
        // One teardown sweep over the periodic checks plus the
        // teardown-only ones; a violated invariant becomes a structured
        // report (and flight dump) instead of a crash, so the health
        // report below still reaches the operator.
        register_final_checks(*wd, pop);
        wd->sweep(end.ns());
    } else {
        WLANPS_REQUIRE_MSG(pop.conserved(),
                           "federation burst conservation violated: admitted != "
                           "completed + shed");
    }

    core::ScenarioResult res;
    res.label = label_;
    res.faults_injected = pop.faults_injected;

    obs::EnergyLedger* ledger = obs::current_ledger();
    const auto stride = static_cast<std::uint32_t>(config_.sample_stride);
    const double dur_s = end.to_seconds();
    for (std::uint32_t id = 0; id < population_; id += stride) {
        core::ClientMetrics m;
        const double joules = slab_->energy_j[id];
        m.wnic_energy = power::Energy::from_joules(joules);
        m.wnic_average = power::Power::from_watts(dur_s > 0.0 ? joules / dur_s : 0.0);
        m.device_average = power::Power::from_watts(
            m.wnic_average.watts() + phy::calibration::kIpaqBase.watts());
        const std::uint32_t admitted = slab_->bursts_admitted[id];
        m.qos = admitted > 0
                    ? static_cast<double>(slab_->bursts_completed[id]) / admitted
                    : 1.0;
        m.underruns = slab_->bursts_shed[id];
        m.received = DataSize::from_bits(
            static_cast<std::int64_t>(slab_->delivered_bits[id]));
        res.clients.push_back(m);
        if (ledger) {
            const auto& causes = sampled_causes_[id / stride];
            ledger->charge(id, obs::EnergyCause::idle_listen, causes[0]);
            ledger->charge(id, obs::EnergyCause::mode_switch, causes[1]);
            ledger->charge(id, obs::EnergyCause::burst_rx, causes[2]);
        }
    }

    obs::HealthReport health = build_health(pop, wd);

    if (stream_state_) {
        auto& w = stream_state_->writer;
        w.summary("population", static_cast<double>(pop.population));
        w.summary("arrivals", static_cast<double>(pop.arrivals));
        w.summary("departures", static_cast<double>(pop.departures));
        w.summary("rejected", static_cast<double>(pop.rejected));
        w.summary("deferred", static_cast<double>(pop.deferred));
        w.summary("degraded", static_cast<double>(pop.degraded));
        w.summary("roams", static_cast<double>(pop.roams));
        w.summary("handoff_failures", static_cast<double>(pop.handoff_failures));
        w.summary("bursts_admitted", static_cast<double>(pop.bursts_admitted));
        w.summary("bursts_completed", static_cast<double>(pop.bursts_completed));
        w.summary("bursts_shed", static_cast<double>(pop.bursts_shed));
        w.summary("delivered_bits", static_cast<double>(pop.delivered_bits));
        w.summary("energy_j", pop.energy_j);
        w.summary("faults_injected", static_cast<double>(pop.faults_injected));
        w.summary("faults_missed", static_cast<double>(pop.faults_missed));
        w.summary("peak_association", static_cast<double>(pop.peak_association));
        // The fingerprint is 64-bit; f64 summaries keep 32-bit halves exact.
        w.summary("fingerprint_hi", static_cast<double>(pop.fingerprint >> 32));
        w.summary("fingerprint_lo",
                  static_cast<double>(pop.fingerprint & 0xffffffffULL));
        for (std::uint32_t id = 0; id < population_; id += stride) {
            const std::uint32_t admitted = slab_->bursts_admitted[id];
            const double qos =
                admitted > 0
                    ? static_cast<double>(slab_->bursts_completed[id]) / admitted
                    : 1.0;
            w.client(id, static_cast<float>(slab_->energy_j[id]),
                     static_cast<float>(qos), slab_->bursts_completed[id],
                     slab_->bursts_shed[id]);
        }
        health.export_stream(w);
        w.flush();
    }

    if (!config_.health_path.empty()) health.write_file(config_.health_path);
    if (obs::MetricsRegistry* reg = obs::current()) kernel_->publish_metrics(*reg);

    return {std::move(res), pop, std::move(health)};
}

FederationResult run_federation(const core::ScenarioSpec& spec) {
    return run_federation(spec, spec.stream().seed);
}

FederationResult run_federation(const core::ScenarioSpec& spec, std::uint64_t seed) {
    spec.validate();
    Federation fed(spec, seed);
    return fed.run();
}

}  // namespace wlanps::fed
