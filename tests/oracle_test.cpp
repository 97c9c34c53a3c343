/// Refactor oracle: every pinned scenario runs through SimBackend with its
/// own metrics registry and energy ledger, and one FNV-1a digest of what
/// the run produced must equal its line in tests/data/oracle_digests.txt.
///
/// A digest covers the ScenarioResult, the energy-ledger JSON plus the
/// exact joules of every (client, cause) charge, and the registry entries
/// the end-of-run fold publishes (phy.*, scenario.client.*, sim.queue.*,
/// sim.kernel.events_dispatched).  Those keys exist in every build, so
/// the digests hold with and without -DWLANPS_OBS=ON.
///
/// A change that moves an output on purpose edits the file by hand: a
/// mismatch prints the scenario's replacement line.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <map>
#include <ostream>
#include <set>
#include <sstream>
#include <string>
#include <variant>
#include <vector>

#include "core/backend.hpp"
#include "core/scenario_spec.hpp"
#include "fault/fault.hpp"
#include "obs/energy_ledger.hpp"
#include "obs/hooks.hpp"
#include "obs/metrics.hpp"
#include "policy/policy.hpp"
#include "sim/digest.hpp"

#if !defined(WLANPS_SOURCE_DIR)
#error "tests need WLANPS_SOURCE_DIR (set in tests/CMakeLists.txt)"
#endif

namespace wlanps {
namespace {

struct Scenario {
    std::string name;
    core::ScenarioSpec spec;
};

/// GTest prints a parameter it cannot print as a byte dump of the object,
/// heap pointers included, and CTest names each test after that print, so
/// the names changed from build to build.  Printing the scenario's name
/// registers the CTest test as Pinned/OracleTest.DigestMatchesPinnedLine/<name>.
void PrintTo(const Scenario& s, std::ostream* os) { *os << s.name; }

std::vector<Scenario> scenarios() {
    std::vector<Scenario> out;

    // Figure 2: 3 MP3 clients, 300 s, seed 42.
    core::StreamConfig fig2;
    fig2.clients = 3;
    fig2.duration = Time::from_seconds(300);
    out.push_back({"fig2_cam", core::ScenarioSpec::cam().with_stream(fig2)});
    out.push_back({"fig2_psm", core::ScenarioSpec::psm().with_stream(fig2)});
    out.push_back({"fig2_bt", core::ScenarioSpec::bt().with_stream(fig2)});
    out.push_back({"fig2_hotspot_edf", core::ScenarioSpec::hotspot().with_stream(fig2).with_hotspot(
                                           core::HotspotConfig{}.with_scheduler("edf"))});

    // AB1's technique rows: 3 MP3 clients, 120 s.
    core::StreamConfig ab1 = fig2;
    ab1.duration = Time::from_seconds(120);
    out.push_back({"ab1_cam", core::ScenarioSpec::cam().with_stream(ab1)});
    for (const int listen : {1, 2, 5}) {
        out.push_back({"ab1_psm_listen" + std::to_string(listen),
                       core::ScenarioSpec::psm().with_stream(ab1).with_psm(
                           core::PsmConfig{}.with_listen_interval(listen))});
    }
    out.push_back({"ab1_psm_aggregate8", core::ScenarioSpec::psm().with_stream(ab1).with_psm(
                                             core::PsmConfig{}.with_aggregate_limit(8))});
    for (const int superframe_ms : {100, 250}) {
        out.push_back({"ab1_ecmac_" + std::to_string(superframe_ms) + "ms",
                       core::ScenarioSpec::ecmac().with_stream(ab1).with_ecmac(
                           core::EcmacConfig{}.with_superframe(Time::from_ms(superframe_ms)))});
    }

    // AB14 --quick: policy x fault intensity, 2 clients, 30 s.
    fault::FaultPlan mild;
    mild.corruption(Time::from_seconds(10), Time::from_seconds(10), 0.25);
    fault::FaultPlan harsh;
    harsh.corruption(Time::from_seconds(10), Time::from_seconds(15), 0.5)
        .blackout(Time::from_seconds(15), Time::from_seconds(3), 0, fault::FaultSpec::Itf::wlan);
    const std::pair<const char*, fault::FaultPlan> intensities[] = {
        {"clean", fault::FaultPlan{}}, {"mild", mild}, {"harsh", harsh}};
    for (const policy::PolicyKind kind :
         {policy::PolicyKind::cam, policy::PolicyKind::psm, policy::PolicyKind::micro_nap,
          policy::PolicyKind::pamas}) {
        for (const auto& [label, plan] : intensities) {
            out.push_back({std::string("ab14_") + policy::to_string(kind) + "_" + label,
                           core::ScenarioSpec::cam()
                               .with_power_policy(policy::PowerPolicyConfig::of(kind))
                               .with_clients(2)
                               .with_duration(Time::from_seconds(30))
                               .with_fault_plan(plan)});
        }
    }

    // μNap with uplink traffic (the DCF backoff-nap path) and a full
    // seven-slave piconet.
    out.push_back({"micro_nap_uplink",
                   core::ScenarioSpec::cam()
                       .with_power_policy(
                           policy::PowerPolicyConfig::of(policy::PolicyKind::micro_nap)
                               .with_uplink(Time::from_ms(250), DataSize::from_bytes(200)))
                       .with_clients(2)
                       .with_duration(Time::from_seconds(30))});
    out.push_back({"bt_7_clients", core::ScenarioSpec::bt().with_clients(7).with_duration(
                                       Time::from_seconds(60))});

    // PSM wakes stuck past the beacon timeout: the station misses that
    // beacon and dozes until the next one.
    fault::FaultPlan stuck;
    stuck.wake_stuck(Time::from_seconds(1), Time::from_ms(50))
        .wake_stuck(Time::from_seconds(3), Time::from_ms(80), 2);
    out.push_back({"psm_wake_stuck", core::ScenarioSpec::psm().with_clients(3).with_duration(
                                         Time::from_seconds(20)).with_fault_plan(stuck)});

    // The hotspot world: WLAN only at 8 and 10 clients (48 KB bursts,
    // 300 s, seed 5), BT only, and the default mixed workload.
    core::StreamConfig wlan_only;
    wlan_only.duration = Time::from_seconds(300);
    wlan_only.seed = 5;
    for (const int clients : {8, 10}) {
        wlan_only.clients = clients;
        out.push_back({"hotspot_wlan_only_" + std::to_string(clients),
                       core::ScenarioSpec::hotspot().with_stream(wlan_only).with_hotspot(
                           core::HotspotConfig{}
                               .with_bt_available(false)
                               .with_target_burst(DataSize::from_kilobytes(48)))});
    }
    out.push_back({"hotspot_bt_only_3", core::ScenarioSpec::hotspot().with_stream(fig2).with_hotspot(
                                            core::HotspotConfig{}.with_wlan_available(false))});
    out.push_back({"hotspot_mixed_default", core::ScenarioSpec::hotspot_mixed()});

    // hotspot_cli's degrade recovery preset (liveness reclaim, burst
    // repair, rejoin, media proxy) under every hotspot fault kind.
    core::StreamConfig degrade;
    degrade.clients = 7;
    degrade.duration = Time::from_seconds(60);
    degrade.fault_plan = fault::FaultPlan::parse(
        "nic-lockup@10+5;wake-stuck@12+0.05;blackout@30+5:wlan;crash@20+10:c3;"
        "silent-leave@40:c4;late-join@5:c7;schedule-drop@45+5%0.5");
    out.push_back({"hotspot_degrade_faults",
                   core::ScenarioSpec::hotspot().with_stream(degrade).with_hotspot(
                       core::HotspotConfig{}
                           .with_resilience(core::ResilienceConfig{}
                                                .with_liveness_timeout(Time::from_seconds(5))
                                                .with_burst_repair(true))
                           .with_rejoin(core::RejoinPolicy{})
                           .with_media_proxy(core::MediaProxy::Config{}))});
    return out;
}

bool is_fold_key(const std::string& key) {
    return key.starts_with("phy.") || key.starts_with("scenario.client.") ||
           key.starts_with("sim.queue.") || key == "sim.kernel.events_dispatched";
}

void digest_instrument(sim::Fnv1a& d, const obs::MetricsSnapshot::Entry& e) {
    d.str(e.key).u64(static_cast<std::uint64_t>(e.kind()));
    if (const auto* c = std::get_if<obs::Counter>(&e.value)) {
        d.u64(c->value());
    } else if (const auto* g = std::get_if<obs::Gauge>(&e.value)) {
        d.u64(g->count()).f64(g->last()).f64(g->min()).f64(g->max()).f64(g->mean());
    } else if (const auto* h = std::get_if<obs::Histogram>(&e.value)) {
        d.u64(h->count()).f64(h->sum()).f64(h->min()).f64(h->max()).u64(h->underflow_count());
        for (std::size_t i = 0; i < obs::Histogram::kBuckets; ++i) d.u64(h->bucket_count(i));
    }
}

std::uint64_t run_digest(const core::ScenarioSpec& spec) {
    obs::MetricsRegistry registry;
    obs::ScopedRegistry registry_scope(registry);
    obs::EnergyLedger ledger;
    obs::ScopedEnergyLedger ledger_scope(ledger);
    const core::ScenarioResult r = core::SimBackend{}.run(spec);

    sim::Fnv1a d;
    d.str(r.label).u64(r.clients.size());
    for (const core::ClientMetrics& c : r.clients) {
        d.f64(c.wnic_average.watts()).f64(c.wnic_energy.joules()).f64(c.device_average.watts());
        d.f64(c.qos).u64(c.underruns).u64(static_cast<std::uint64_t>(c.received.bits()));
    }
    const core::RecoveryReport& rec = r.recovery;
    d.u64(rec.liveness_reclaims).u64(rec.burst_repairs).u64(rec.schedule_drops);
    d.u64(rec.rejoin_attempts).u64(rec.rejoins).u64(rec.recover_times_s.size());
    for (const double t : rec.recover_times_s) d.f64(t);
    d.u64(r.degradation.size());
    for (const core::MediaProxy::DegradationReport& g : r.degradation) {
        d.u64(g.adaptations).u64(g.video_drops).u64(g.pauses).u64(g.video_resumes);
        d.f64(g.time_audio_only_s).f64(g.time_paused_s).u64(g.bytes_dropped);
        d.u64(g.recover_times_s.size());
        for (const double t : g.recover_times_s) d.f64(t);
    }
    d.u64(r.faults_injected);

    d.str(ledger.to_json());
    for (const std::uint32_t client : ledger.clients()) {
        d.u64(client);
        for (std::size_t c = 0; c < obs::kEnergyCauseCount; ++c) {
            d.f64(ledger.charged(client, static_cast<obs::EnergyCause>(c)));
        }
    }

    const obs::MetricsSnapshot snapshot = registry.snapshot();
    for (const auto& entry : snapshot.entries()) {
        if (is_fold_key(entry.key)) digest_instrument(d, entry);
    }
    return d.value();
}

std::string hex(std::uint64_t v) {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016" PRIx64, v);
    return buf;
}

/// name -> hex digest, one "name hex" line per scenario.
std::map<std::string, std::string> pinned() {
    const std::string path = std::string(WLANPS_SOURCE_DIR) + "/tests/data/oracle_digests.txt";
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    std::map<std::string, std::string> out;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream fields(line);
        std::string name;
        std::string digest;
        fields >> name >> digest;
        EXPECT_TRUE(out.emplace(name, digest).second) << "duplicate line for " << name;
    }
    return out;
}

class OracleTest : public ::testing::TestWithParam<Scenario> {};

TEST_P(OracleTest, DigestMatchesPinnedLine) {
    const Scenario& s = GetParam();
    const auto lines = pinned();
    const auto it = lines.find(s.name);
    const std::string actual = hex(run_digest(s.spec));
    ASSERT_NE(it, lines.end()) << "no pinned line; add:\n" << s.name << " " << actual;
    EXPECT_EQ(it->second, actual) << "scenario " << s.name << " changed; new line:\n"
                                  << s.name << " " << actual;
}

INSTANTIATE_TEST_SUITE_P(Pinned, OracleTest, ::testing::ValuesIn(scenarios()));

TEST(OracleFileTest, EveryPinnedLineNamesAScenario) {
    std::set<std::string> names;
    for (const Scenario& s : scenarios()) names.insert(s.name);
    for (const auto& [name, digest] : pinned()) {
        EXPECT_TRUE(names.count(name) == 1) << "stale line: " << name;
        EXPECT_EQ(digest.size(), 16u) << name;
    }
}

}  // namespace
}  // namespace wlanps
