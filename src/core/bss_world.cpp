#include "core/bss_world.hpp"

#include <type_traits>
#include <utility>
#include <variant>

#include "bt/piconet.hpp"
#include "core/scenario_obs.hpp"
#include "fault/injector.hpp"
#include "mac/access_point.hpp"
#include "mac/ecmac.hpp"
#include "mac/station.hpp"
#include "obs/energy_ledger.hpp"
#include "obs/hooks.hpp"
#include "policy/station.hpp"
#include "sim/assert.hpp"
#include "traffic/playout.hpp"
#include "traffic/source.hpp"

namespace wlanps::core {

namespace {

using fault::FaultKind;

traffic::PlayoutBuffer::Config mp3_playout() {
    traffic::PlayoutBuffer::Config c;
    c.frame_size = phy::calibration::kMp3FrameSize;
    c.frame_interval = phy::calibration::kMp3FrameInterval;
    c.preroll = Time::from_seconds(2);
    c.capacity = DataSize::from_kilobytes(2048);
    c.start_threshold_frames = 38;  // ~1 s of audio buffered before playing
    return c;
}

}  // namespace

/// One client: its station (of the hub's type), the MP3 playout buffer
/// the station delivers into, and the MP3 source that feeds the hub.
struct BssWorld::Row {
    std::unique_ptr<policy::PowerPolicy> policy;  // micro_nap / pamas; outlives the station
    std::variant<std::unique_ptr<mac::WlanStation>, std::unique_ptr<policy::PolicyStation>,
                 std::unique_ptr<mac::EcMacStation>, std::unique_ptr<bt::BtSlave>>
        station;
    std::unique_ptr<traffic::PlayoutBuffer> playout;
    std::unique_ptr<traffic::Mp3Source> source;
};

BssWorld::BssWorld(sim::Simulator& sim, const ScenarioSpec& spec, std::uint64_t seed,
                   obs::EnergyLedger* ledger)
    : sim_(sim), root_(seed), label_(spec.label()) {
    const StreamConfig& stream = spec.stream();
    WLANPS_REQUIRE(stream.clients >= 1);
    const bool psm = spec.policy() == Policy::psm;
    const PsmConfig ps = psm ? spec.psm_config() : PsmConfig{};
    const policy::PowerPolicyConfig* power =
        spec.has_power_policy() ? &spec.power_policy_config() : nullptr;

    switch (spec.policy()) {
        case Policy::cam:
        case Policy::psm: {
            mac::AccessPointConfig c;
            if (power != nullptr) {
                c.beacon_interval = power->beacon_interval;
                // Duty-cycling stations need the AP to buffer for them.
                c.mode = power->kind == policy::PolicyKind::pamas ? mac::ApMode::psm
                                                                  : mac::ApMode::cam;
            } else {
                c.mode = psm ? mac::ApMode::psm : mac::ApMode::cam;
                c.beacon_interval = ps.beacon_interval;
                c.aggregate_limit = ps.aggregate_limit;
            }
            bss_ = std::make_unique<mac::Bss>(sim);
            ap_ = std::make_unique<mac::AccessPoint>(sim, *bss_, c, mac::DcfConfig{},
                                                     root_.fork(100));
            break;
        }
        case Policy::ecmac: {
            mac::EcMacConfig c;
            c.superframe = spec.ecmac_config().superframe;
            bss_ = std::make_unique<mac::Bss>(sim);
            ecmac_ = std::make_unique<mac::EcMacController>(sim, *bss_, c, root_.fork(100));
            break;
        }
        case Policy::bt:
            piconet_ = std::make_unique<bt::Piconet>(sim, bt::PiconetConfig{}, root_.fork(100));
            break;
        case Policy::hotspot:
        case Policy::federation:
            WLANPS_REQUIRE_MSG(false, "a BSS world runs cam, psm, ecmac or bt specs");
    }

    rows_.reserve(static_cast<std::size_t>(stream.clients));
    for (int i = 0; i < stream.clients; ++i) {
        const auto id = static_cast<std::uint32_t>(i + 1);
        Row& row = rows_.emplace_back();
        traffic::Sink to_hub;
        if (ap_ != nullptr) {
            if (power != nullptr) {
                row.policy = policy::make_power_policy(*power);
                row.station = std::make_unique<policy::PolicyStation>(
                    sim, *bss_, *ap_, id, *row.policy, *power, mac::DcfConfig{},
                    stream.wlan_nic, root_.fork(200 + i));
            } else {
                mac::StationConfig c;
                c.mode = psm ? mac::StationMode::psm : mac::StationMode::cam;
                c.listen_interval = ps.listen_interval;
                row.station = std::make_unique<mac::WlanStation>(
                    sim, *bss_, id, c, mac::DcfConfig{}, stream.wlan_nic, root_.fork(200 + i));
            }
            to_hub = [ap = ap_.get(), id](DataSize size) { ap->send(id, size); };
        } else if (ecmac_ != nullptr) {
            row.station = std::make_unique<mac::EcMacStation>(sim, *bss_, id, ecmac_->config(),
                                                              stream.wlan_nic);
            to_hub = [ec = ecmac_.get(), id](DataSize size) { ec->send(id, size); };
        } else {
            auto slave =
                std::make_unique<bt::BtSlave>(sim, stream.bt_nic, phy::BtNic::State::active);
            WLANPS_REQUIRE(piconet_->join(*slave) == id);
            row.station = std::move(slave);
            to_hub = [pico = piconet_.get(), id](DataSize size) { pico->send(id, size); };
        }

        std::visit(
            [&](auto& st) {
                if (ledger != nullptr) st->nic().attach_ledger(ledger, id);
                if (piconet_ != nullptr) {
                    piconet_->set_link(id, stream.bt_link, root_.fork(300 + i));
                } else {
                    bss_->set_link(id, stream.wlan_link, root_.fork(300 + i));
                }
                row.playout = std::make_unique<traffic::PlayoutBuffer>(sim, mp3_playout());
                st->set_receive_callback(
                    [p = row.playout.get()](DataSize size, auto...) { p->on_data(size); });
            },
            row.station);
        row.source = std::make_unique<traffic::Mp3Source>(sim, std::move(to_hub));
    }
}

BssWorld::~BssWorld() = default;

void BssWorld::bind_faults(fault::FaultInjector& injector, const FaultSurface& faults) {
    WLANPS_REQUIRE_MSG(ap_ != nullptr, "only an access-point world binds fault hooks");
    std::vector<phy::WlanNic*> nics;
    for (Row& row : rows_) {
        std::visit(
            [&nics](auto& st) {
                if constexpr (std::is_same_v<decltype(st->nic()), phy::WlanNic&>) {
                    nics.push_back(&st->nic());
                }
            },
            row.station);
    }
    if (faults.accepts(FaultKind::nic_lockup)) {
        injector.phy().nic_lockup = [nics](std::uint32_t target, Time until) {
            for (std::size_t i = 0; i < nics.size(); ++i) {
                if (target == 0 || target == i + 1) nics[i]->inject_lockup(until);
            }
        };
    }
    if (faults.accepts(FaultKind::wake_stuck)) {
        injector.phy().wake_stuck = [nics](std::uint32_t target, Time extra) {
            for (std::size_t i = 0; i < nics.size(); ++i) {
                if (target == 0 || target == i + 1) nics[i]->inject_wake_stuck(extra);
            }
        };
    }
    if (faults.accepts(FaultKind::beacon_loss)) {
        injector.mac().beacon_loss = [this](Time until) { ap_->suppress_beacons(until); };
    }
    if (faults.accepts(FaultKind::poll_drop)) {
        injector.mac().poll_drop = [this](double p, Time until) {
            ap_->inject_poll_drop(p, until, root_.fork(901));
        };
    }
    injector.net().fault_window = [this](std::uint32_t target, fault::FaultSpec::Itf itf,
                                         double p, Time until) {
        if (itf == fault::FaultSpec::Itf::bt) return;  // no BT in an access-point world
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            if (target != 0 && target != i + 1) continue;
            if (auto* link = bss_->link(static_cast<mac::StationId>(i + 1))) {
                link->add_fault_window(sim_.now(), until, p);
            }
        }
    };
}

void BssWorld::start() {
    if (ap_ != nullptr) ap_->start();
    if (ecmac_ != nullptr) ecmac_->start();
    for (Row& row : rows_) {
        std::visit(
            [this](auto& st) {
                using Station = std::decay_t<decltype(*st)>;
                if constexpr (std::is_same_v<Station, mac::WlanStation>) {
                    st->start(ap_->config().beacon_interval, ap_->config().beacon_interval);
                } else if constexpr (std::is_same_v<Station, mac::EcMacStation>) {
                    st->start(ecmac_->superframe_anchor());
                } else if constexpr (std::is_same_v<Station, policy::PolicyStation>) {
                    st->start();
                }  // a piconet slave is live once it joined
            },
            row.station);
    }
    for (Row& row : rows_) row.playout->start();
    for (Row& row : rows_) row.source->start();
}

ScenarioResult BssWorld::finish() {
    ScenarioResult result;
    result.label = label_;
    obs::MetricsRegistry* reg = obs::current();
    const std::string prefix = piconet_ != nullptr ? "phy.bt" : "phy.wlan";
    for (Row& row : rows_) {
        std::visit(
            [&](auto& st) {
                st->nic().settle_ledger();
                result.clients.push_back(make_client_metrics(st->average_power(),
                                                             st->energy_consumed(),
                                                             *row.playout, st->bytes_received()));
                if (reg != nullptr) st->nic().publish_metrics(*reg, prefix);
            },
            row.station);
    }
    record_client_obs(result);
    record_kernel_obs(sim_);
    return result;
}

policy::PolicyStation& BssWorld::policy_station(int i) {
    return *std::get<std::unique_ptr<policy::PolicyStation>>(
        rows_.at(static_cast<std::size_t>(i)).station);
}

}  // namespace wlanps::core
