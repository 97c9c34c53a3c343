#include "policy/world.hpp"

#include <cstring>

#include "sim/assert.hpp"
#include "sim/random.hpp"

namespace wlanps::policy {

namespace {

sim::Random ap_rng(std::uint64_t seed) { return sim::Random(seed).fork(100); }

void fnv_mix(std::uint64_t& h, std::uint64_t v) {
    h = (h ^ v) * 1099511628211ull;
}

std::uint64_t bits_of(double v) {
    std::uint64_t u = 0;
    std::memcpy(&u, &v, sizeof(u));
    return u;
}

}  // namespace

PolicyBssWorld::PolicyBssWorld(sim::Simulator& sim, PolicyWorldConfig config,
                               obs::EnergyLedger* ledger)
    : sim_(sim),
      config_(std::move(config)),
      bss_(sim),
      ap_(sim, bss_,
          [&] {
              mac::AccessPointConfig c;
              c.beacon_interval = config_.policy.beacon_interval;
              // Duty-cycling stations need the AP to buffer for them.
              c.mode = config_.policy.kind == PolicyKind::pamas ? mac::ApMode::psm
                                                                : mac::ApMode::cam;
              return c;
          }(),
          mac::DcfConfig{}, ap_rng(config_.seed)) {
    WLANPS_REQUIRE(config_.clients >= 1);
    config_.policy.validate();

    sim::Random root(config_.seed);
    for (int i = 0; i < config_.clients; ++i) {
        const auto id = static_cast<mac::StationId>(i + 1);
        auto policy = make_power_policy(config_.policy);
        auto st = std::make_unique<PolicyStation>(sim_, bss_, ap_, id, *policy,
                                                  config_.policy, mac::DcfConfig{},
                                                  config_.nic, root.fork(200 + i));
        if (ledger != nullptr) {
            st->wlan_nic().attach_ledger(ledger, static_cast<std::uint32_t>(id));
        }
        bss_.set_link(id, config_.link, root.fork(300 + i));
        auto playout = std::make_unique<traffic::PlayoutBuffer>(sim_, config_.playout);
        st->set_receive_callback(
            [p = playout.get()](DataSize size, Time) { p->on_data(size); });
        auto src = std::make_unique<traffic::Mp3Source>(
            sim_, [this, id](DataSize size) { ap_.send(id, size); });
        policies_.push_back(std::move(policy));
        stations_.push_back(std::move(st));
        playouts_.push_back(std::move(playout));
        sources_.push_back(std::move(src));
    }
}

void PolicyBssWorld::start() {
    ap_.start();
    for (auto& st : stations_) st->start();
    for (auto& p : playouts_) p->start();
    for (auto& s : sources_) s->start();
}

void PolicyBssWorld::settle() {
    for (auto& st : stations_) st->wlan_nic().settle_ledger();
}

std::uint64_t PolicyBssWorld::fingerprint() const {
    std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
    for (const auto& st : stations_) {
        fnv_mix(h, bits_of(st->energy_consumed().joules()));
        fnv_mix(h, static_cast<std::uint64_t>(st->bytes_received().bytes()));
        fnv_mix(h, st->frames_received());
        fnv_mix(h, st->beacons_heard());
        fnv_mix(h, st->cycles());
        fnv_mix(h, static_cast<std::uint64_t>(st->bytes_sent().bytes()));
        if (const power::Battery* b = st->battery()) {
            fnv_mix(h, bits_of(b->level()));
        }
    }
    return h;
}

}  // namespace wlanps::policy
