/// Federation subsystem tests: spec validation edges must fail with
/// actionable messages, the client slab must stay inside its byte budget,
/// admitted bursts must be conserved exactly (admitted = completed +
/// shed), the population fingerprint must be bit-identical across
/// worker-thread counts and sensitive to the seed, roaming and admission
/// policies must leave their marks in the population summary, slab-level
/// fault injection must compose with all of it, and the WPSM metrics
/// stream must round-trip through the in-process decoder.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>

#include <memory>

#include "core/backend.hpp"
#include "core/scenario_spec.hpp"
#include "core/scenarios.hpp"
#include "exp/runner.hpp"
#include "fault/fault.hpp"
#include "fed/client_slab.hpp"
#include "fed/federation.hpp"
#include "obs/metrics_stream.hpp"
#include "sim/assert.hpp"

namespace wlanps::fed {
namespace {

core::FederationConfig small_config() {
    core::FederationConfig cfg;
    cfg.with_aps(8).with_shards(4).with_threads(0);
    cfg.capacity_per_ap = 64;
    cfg.mean_session = Time::from_seconds(40);
    return cfg;
}

core::ScenarioSpec small_spec(const core::FederationConfig& cfg, int clients = 96,
                              std::uint64_t seed = 7,
                              Time duration = Time::from_seconds(60)) {
    core::StreamConfig stream;
    stream.clients = clients;
    stream.duration = duration;
    stream.seed = seed;
    return core::ScenarioSpec::federation().with_federation(cfg).with_stream(stream);
}

// --- validation edges ----------------------------------------------------

TEST(FederationSpecTest, ZeroShardsIsRejectedWithPointer) {
    auto cfg = small_config();
    cfg.shards = 0;
    try {
        small_spec(cfg).validate();
        FAIL() << "shards=0 must throw";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("sharded kernel"), std::string::npos)
            << e.what();
    }
}

TEST(FederationSpecTest, ThreadsBeyondShardsAreRejectedWithFix) {
    auto cfg = small_config();
    cfg.with_shards(4).with_threads(8);
    try {
        small_spec(cfg).validate();
        FAIL() << "threads > shards must throw";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("lower threads or raise shards"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FederationSpecTest, MoreShardsThanApsAreRejected) {
    auto cfg = small_config();
    cfg.with_aps(2).with_shards(4);
    EXPECT_THROW(small_spec(cfg).validate(), ContractViolation);
}

TEST(FederationSpecTest, NegativeSizesAndRatesAreRejected) {
    const Rate negative_rate = Rate::from_kbps(-128);
    auto cfg = small_config();
    cfg.stream_rate = negative_rate;
    EXPECT_THROW(small_spec(cfg).validate(), ContractViolation);
    cfg = small_config();
    cfg.target_burst = DataSize::from_kilobytes(-48);
    EXPECT_THROW(small_spec(cfg).validate(), ContractViolation);
    cfg = small_config();
    cfg.radio_goodput = negative_rate;
    EXPECT_THROW(small_spec(cfg).validate(), ContractViolation);
    cfg = small_config();
    cfg.backhaul_rate = negative_rate;
    EXPECT_THROW(small_spec(cfg).validate(), ContractViolation);
}

TEST(FederationSpecTest, RoamingNeedsASecondAp) {
    auto cfg = small_config();
    cfg.with_aps(1).with_shards(1).with_roaming(Time::from_seconds(30));
    try {
        small_spec(cfg).validate();
        FAIL() << "roaming with one AP must throw";
    } catch (const ContractViolation& e) {
        EXPECT_NE(std::string(e.what()).find("add APs or disable roaming"),
                  std::string::npos)
            << e.what();
    }
}

TEST(FederationSpecTest, MacLevelFaultKindsAreRejectedPerKind) {
    core::StreamConfig stream;
    stream.clients = 8;
    stream.duration = Time::from_seconds(30);
    stream.fault_plan.beacon_loss(Time::from_seconds(5), Time::from_seconds(5));
    const auto spec = core::ScenarioSpec::federation()
                          .with_federation(small_config())
                          .with_stream(stream);
    EXPECT_THROW(spec.validate(), ContractViolation);
}

// --- slab budget ---------------------------------------------------------

TEST(ClientSlabTest, PerClientFootprintStaysInBudget) {
    // The header static_asserts this at compile time; keep the number in a
    // test so a budget change is a visible, reviewed event.
    EXPECT_LE(ClientSlab::kBytesPerClient, std::size_t{96});
    EXPECT_EQ(ClientSlab::kBytesPerClient, std::size_t{72});
}

// --- conservation + determinism ------------------------------------------

TEST(FederationRunTest, AdmittedBurstsAreConservedExactly) {
    auto cfg = small_config();
    cfg.base_arrival_hz = 0.5;
    const auto result = run_federation(small_spec(cfg));
    const PopulationSummary& p = result.population;
    EXPECT_TRUE(p.conserved());
    EXPECT_EQ(p.bursts_admitted, p.bursts_completed + p.bursts_shed);
    EXPECT_GT(p.bursts_completed, 0u);
    EXPECT_GT(p.energy_j, 0.0);
    EXPECT_GT(p.peak_association, 0u);
    // Stride sampling: the exported ClientMetrics are a subset of the
    // population, never more.
    EXPECT_LE(result.scenario.clients.size(), static_cast<std::size_t>(p.population));
    EXPECT_FALSE(result.scenario.clients.empty());
}

TEST(FederationRunTest, FingerprintBitIdenticalAcrossThreadCounts) {
    auto cfg = small_config();
    cfg.base_arrival_hz = 0.5;
    cfg.with_roaming(Time::from_seconds(15));
    const auto inline_run = run_federation(small_spec(cfg));
    for (int threads : {1, 2, 4}) {
        auto threaded = cfg;
        threaded.with_threads(threads);
        const auto parallel = run_federation(small_spec(threaded));
        EXPECT_EQ(inline_run.population.fingerprint, parallel.population.fingerprint)
            << threads << " threads";
        EXPECT_EQ(inline_run.population.roams, parallel.population.roams);
        EXPECT_EQ(inline_run.population.bursts_completed,
                  parallel.population.bursts_completed);
        EXPECT_EQ(inline_run.population.energy_j, parallel.population.energy_j);
    }
}

TEST(FederationRunTest, SameSeedReproducesSameFingerprint) {
    const auto a = run_federation(small_spec(small_config()));
    const auto b = run_federation(small_spec(small_config()));
    EXPECT_EQ(a.population.fingerprint, b.population.fingerprint);
}

TEST(FederationRunTest, FingerprintIsSeedSensitive) {
    const auto a = run_federation(small_spec(small_config(), 96, 7));
    const auto b = run_federation(small_spec(small_config(), 96, 8));
    EXPECT_NE(a.population.fingerprint, b.population.fingerprint);
}

// --- roaming + admission -------------------------------------------------

TEST(FederationRunTest, RoamingMovesClientsBetweenCells) {
    auto cfg = small_config();
    cfg.with_roaming(Time::from_seconds(10));
    const auto result = run_federation(small_spec(cfg));
    EXPECT_GT(result.population.roams, 0u);
    EXPECT_TRUE(result.population.conserved());
}

TEST(FederationRunTest, AdmissionPoliciesLeaveTheirMarks) {
    auto cfg = small_config();
    cfg.capacity_per_ap = 4;  // 96 initial clients over 8 APs: oversubscribed

    cfg.admission = core::AdmissionPolicy::reject;
    const auto rejected = run_federation(small_spec(cfg));
    EXPECT_GT(rejected.population.rejected, 0u);

    cfg.admission = core::AdmissionPolicy::defer;
    const auto deferred = run_federation(small_spec(cfg));
    EXPECT_GT(deferred.population.deferred, 0u);

    cfg.admission = core::AdmissionPolicy::degrade;
    const auto degraded = run_federation(small_spec(cfg));
    EXPECT_GT(degraded.population.degraded, 0u);

    for (const auto* r : {&rejected, &deferred, &degraded}) {
        EXPECT_TRUE(r->population.conserved());
        EXPECT_LE(r->population.peak_association,
                  static_cast<std::uint64_t>(cfg.capacity_per_ap) * 8u);
    }
}

// --- slab-level faults ---------------------------------------------------

TEST(FederationRunTest, SlabFaultsInjectAndConserve) {
    core::StreamConfig stream;
    stream.clients = 96;
    stream.duration = Time::from_seconds(60);
    stream.seed = 7;
    stream.fault_plan
        .nic_lockup(Time::from_seconds(10), Time::from_seconds(5))
        .client_crash(Time::from_seconds(15), Time::from_seconds(10), 3)
        .silent_leave(Time::from_seconds(20), 5);
    const auto spec = core::ScenarioSpec::federation()
                          .with_federation(small_config())
                          .with_stream(stream);
    const auto result = run_federation(spec);
    EXPECT_GT(result.population.faults_injected, 0u);
    EXPECT_TRUE(result.population.conserved());
    EXPECT_EQ(result.scenario.faults_injected, result.population.faults_injected);
}

TEST(FederationRunTest, FaultedRunStaysThreadInvariant) {
    core::StreamConfig stream;
    stream.clients = 64;
    stream.duration = Time::from_seconds(45);
    stream.seed = 11;
    stream.fault_plan.nic_lockup(Time::from_seconds(8), Time::from_seconds(4))
        .client_crash(Time::from_seconds(12), Time::from_seconds(6), 2);
    auto cfg = small_config();
    const auto inline_run = run_federation(
        core::ScenarioSpec::federation().with_federation(cfg).with_stream(stream));
    cfg.with_threads(2);
    const auto parallel = run_federation(
        core::ScenarioSpec::federation().with_federation(cfg).with_stream(stream));
    EXPECT_EQ(inline_run.population.fingerprint, parallel.population.fingerprint);
    EXPECT_EQ(inline_run.population.faults_injected, parallel.population.faults_injected);
}

// --- golden fingerprints -------------------------------------------------

// A city block: 10⁴ clients on 312 APs with roaming, defer admission and a
// flash crowd.  Bursts are 3 s apart and roams tens of seconds, so most
// posts land far beyond a ~1 ms calendar-queue window; the pinned values
// catch a kernel or teardown ordering bug that every thread count shares.
core::ScenarioSpec city_block_spec(int threads) {
    core::StreamConfig stream;
    stream.clients = 10000;
    stream.duration = Time::from_seconds(60);
    stream.seed = 29;
    core::FederationConfig cfg;
    cfg.with_aps(312)
        .with_shards(4)
        .with_threads(threads)
        .with_roaming(Time::from_seconds(45))
        .with_admission(core::AdmissionPolicy::defer)
        .with_capacity_per_ap(36)
        .with_arrivals(0.11, 0.35, Time::from_seconds(20), Time::from_seconds(30));
    return core::ScenarioSpec::federation().with_federation(cfg).with_stream(stream);
}

TEST(FederationRunTest, GoldenFingerprintsPinTheCityBlock) {
    const auto plain = run_federation(city_block_spec(0));
    EXPECT_EQ(plain.population.fingerprint, 0x04d7002b8baaca4cULL)
        << std::hex << plain.population.fingerprint;

    // Population-wide nic-lockups that each cell rolls at p = 0.5, three
    // times: the per-cell fault streams and the lockup sweep are pinned too.
    auto spec = city_block_spec(2);
    fault::FaultSpec lockup;
    lockup.kind = fault::FaultKind::nic_lockup;
    lockup.at = Time::from_seconds(15);
    lockup.duration = Time::from_seconds(4);
    lockup.probability = 0.5;
    lockup.repeat = 3;
    lockup.period = Time::from_seconds(10);
    core::StreamConfig stream = spec.stream();
    stream.fault_plan.add(lockup);
    const auto faulted = run_federation(spec.with_stream(stream));
    EXPECT_GT(faulted.population.faults_injected, 0u);
    EXPECT_TRUE(faulted.population.conserved());
    EXPECT_EQ(faulted.population.fingerprint, 0x87e2401d11e62f34ULL)
        << std::hex << faulted.population.fingerprint;
}

// --- SimBackend dispatch -------------------------------------------------

TEST(FederationRunTest, SimBackendRunsFederationSpecs) {
    const auto result = core::SimBackend{}.run(small_spec(small_config()));
    EXPECT_FALSE(result.clients.empty());
    for (const auto& c : result.clients) {
        EXPECT_GE(c.wnic_energy.joules(), 0.0);
    }
}

// --- federation as a sweep axis ------------------------------------------

TEST(FederationRunTest, SweepsDeterministicallyThroughExperimentRunner) {
    // Admission policies as grid points over a seed range: the runner's
    // seed-ordered reduction must be bit-identical at any worker-thread
    // count, federation runs included.
    namespace sc = core::scenarios;
    auto reject_cfg = small_config();
    reject_cfg.capacity_per_ap = 4;
    auto defer_cfg = reject_cfg;
    defer_cfg.admission = core::AdmissionPolicy::defer;
    const auto spec =
        exp::ExperimentSpec{}
            .with_run(sc::spec_grid_run(std::make_shared<core::SimBackend>(),
                                        {small_spec(reject_cfg, 64, 0,
                                                    Time::from_seconds(30)),
                                         small_spec(defer_cfg, 64, 0,
                                                    Time::from_seconds(30))}))
            .with_points({"reject", "defer"})
            .with_seed_range(42, 3);
    const auto serial = exp::ExperimentRunner(1).run(spec);
    const auto parallel = exp::ExperimentRunner(4).run(spec);
    ASSERT_EQ(serial.runs.size(), 6u);
    ASSERT_EQ(parallel.runs.size(), serial.runs.size());
    for (std::size_t i = 0; i < serial.runs.size(); ++i) {
        ASSERT_EQ(serial.runs[i].metrics.size(), parallel.runs[i].metrics.size());
        for (std::size_t m = 0; m < serial.runs[i].metrics.size(); ++m) {
            EXPECT_EQ(serial.runs[i].metrics[m].second, parallel.runs[i].metrics[m].second)
                << "run " << i << " metric " << serial.runs[i].metrics[m].first;
        }
    }
}

// --- WPSM metrics stream -------------------------------------------------

TEST(FederationRunTest, MetricsStreamRoundTrips) {
    const std::string path = testing::TempDir() + "fed_stream_test.wpsm";
    auto cfg = small_config();
    cfg.base_arrival_hz = 0.5;
    cfg.sample_stride = 16;
    cfg.with_stream_path(path);
    const auto result = run_federation(small_spec(cfg));

    const obs::MetricsStreamContents contents = obs::read_metrics_stream(path);
    ASSERT_FALSE(contents.series_names.empty());
    EXPECT_NE(std::find(contents.series_names.begin(), contents.series_names.end(),
                        "fed.associated"),
              contents.series_names.end());
    EXPECT_FALSE(contents.samples.empty());
    EXPECT_FALSE(contents.clients.empty());

    bool found_population = false;
    for (const auto& [key, value] : contents.summaries) {
        if (key == "population") {
            found_population = true;
            EXPECT_EQ(static_cast<std::uint64_t>(value), result.population.population);
        }
    }
    EXPECT_TRUE(found_population);
}

}  // namespace
}  // namespace wlanps::fed
