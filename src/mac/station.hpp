#pragma once
/// \file station.hpp
/// 802.11 client station with CAM and PSM operating modes.
///
/// CAM ("constantly awake mode") leaves the NIC idle-listening — the
/// baseline whose cost motivates the whole paper.  PSM follows the 802.11
/// power-save standard: doze by default, wake for every listen_interval-th
/// beacon, and when the beacon's TIM flags buffered traffic, retrieve it
/// with PS-Polls until the More-Data bit clears, then doze again.

#include <cstdint>
#include <functional>

#include "mac/bss.hpp"
#include "mac/dcf.hpp"
#include "mac/frame.hpp"
#include "phy/wlan_nic.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace wlanps::mac {

/// Station operating mode.
enum class StationMode { cam, psm };

/// Station configuration.
struct StationConfig {
    StationMode mode = StationMode::cam;
    /// Wake for every Nth beacon (1 = every beacon).
    int listen_interval = 1;
    /// Extra guard the station wakes ahead of the expected beacon, on top
    /// of the doze wake latency.
    Time wake_guard = Time::from_ms(1);
    /// Give up waiting for a beacon this long after its expected time.
    Time beacon_timeout = Time::from_ms(20);
    /// Give up on a PS-Poll response after this long and re-poll / doze.
    Time poll_timeout = Time::from_ms(50);
    int poll_retry_limit = 3;
    DataSize ps_poll_size = DataSize::from_bytes(20);
};

/// A client station in a BSS.
class WlanStation final : public MacEntity {
public:
    /// Upper-layer delivery: payload size and MAC-queue latency.
    using ReceiveCallback = std::function<void(DataSize payload, Time mac_latency)>;

    WlanStation(sim::Simulator& sim, Bss& bss, StationId id, StationConfig config,
                DcfConfig dcf, phy::WlanNicConfig nic_config, sim::Random rng);

    /// Begin operating.  For PSM, \p first_beacon_at is the TSF time of the
    /// next beacon and \p beacon_interval the AP's beacon period (a real
    /// station learns both from any received beacon).
    void start(Time first_beacon_at, Time beacon_interval);

    void set_receive_callback(ReceiveCallback cb) { on_receive_ = std::move(cb); }

    /// Send \p payload upstream to the AP.  A dozing PSM station wakes for
    /// the transmission and dozes again once its uplink queue drains.
    void send_up(DataSize payload, std::function<void(bool delivered)> done = {});

    [[nodiscard]] StationId id() const { return id_; }
    [[nodiscard]] const StationConfig& config() const { return config_; }

    // Accounting.
    [[nodiscard]] power::Energy energy_consumed() const { return nic_.energy_consumed(); }
    [[nodiscard]] power::Power average_power() const { return nic_.average_power(); }
    [[nodiscard]] std::uint64_t frames_received() const { return frames_received_; }
    [[nodiscard]] DataSize bytes_received() const { return bytes_received_; }
    [[nodiscard]] std::uint64_t beacons_heard() const { return beacons_heard_; }
    [[nodiscard]] std::uint64_t polls_sent() const { return polls_sent_; }
    [[nodiscard]] const sim::Accumulator& delivery_latency() const { return latency_; }
    [[nodiscard]] DataSize bytes_sent() const { return bytes_sent_; }
    [[nodiscard]] phy::WlanNic& wlan_nic() { return nic_; }
    [[nodiscard]] DcfTransmitter& dcf() { return dcf_; }

    // --- MacEntity -----------------------------------------------------------
    [[nodiscard]] phy::WlanNic& nic() override { return nic_; }
    [[nodiscard]] bool listening() const override { return nic_.awake(); }
    void on_frame(const Frame& frame) override;

private:
    void schedule_wake_for_next_beacon();
    void on_beacon(const Frame& beacon);
    void send_poll();
    void poll_timed_out();
    void back_to_doze();
    void maybe_doze();

    sim::Simulator& sim_;
    Bss& bss_;
    StationId id_;
    StationConfig config_;
    phy::WlanNic nic_;
    DcfTransmitter dcf_;
    ReceiveCallback on_receive_;

    Time beacon_interval_ = Time::zero();
    Time next_beacon_at_ = Time::zero();
    bool awaiting_beacon_ = false;
    bool retrieving_ = false;
    int poll_retries_ = 0;
    /// One causal flow per TIM-flagged retrieval: (station id << 32 | seq),
    /// so PSM flows never collide with the hotspot server's 1-based mint.
    std::uint64_t flow_seq_ = 0;
    obs::TraceContext current_flow_;
    sim::EventHandle wake_event_;
    sim::EventHandle timeout_event_;

    std::uint64_t frames_received_ = 0;
    DataSize bytes_received_;
    DataSize bytes_sent_;
    std::uint64_t beacons_heard_ = 0;
    std::uint64_t polls_sent_ = 0;
    int uplink_in_flight_ = 0;
    sim::Accumulator latency_;
};

/// Saturated DCF uplink: start() sends \p size upstream, and every
/// completion before \p until sends again.  Each send carries a copy of
/// this callable as its completion, so nothing is shared between sends.
struct SaturatedUplink {
    WlanStation* station;
    const sim::Simulator* sim;
    DataSize size;
    Time until;

    void start() const { station->send_up(size, *this); }
    void operator()(bool /*delivered*/) const {
        if (sim->now() < until) station->send_up(size, *this);
    }
};

}  // namespace wlanps::mac
