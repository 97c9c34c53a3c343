#pragma once
/// \file client.hpp
/// The client-side resource manager (paper §2).
///
/// "The client's resource manager implements the scheduling decisions by
/// enabling data transfer and transitioning the wireless network
/// interfaces between power states.  It also aggregates information, such
/// as its WLAN power state characteristics and QoS needs of the
/// applications."  HotspotClient owns the client's WNICs (via their burst
/// channels) and playout buffer, executes server-issued bursts with
/// just-in-time wakeups, and parks/offs everything in between.

#include <cstdint>
#include <memory>
#include <vector>

#include "core/burst_channel.hpp"
#include "core/qos.hpp"
#include "power/battery.hpp"
#include "sim/units.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"
#include "sim/trace.hpp"
#include "traffic/playout.hpp"

namespace wlanps::core {

/// A Hotspot client device.
class HotspotClient {
public:
    HotspotClient(sim::Simulator& sim, ClientId id, QosContract contract);
    HotspotClient(const HotspotClient&) = delete;
    HotspotClient& operator=(const HotspotClient&) = delete;

    /// Attach a burst channel (one per interface).  Returns its index.
    /// The channel's delivery sink is claimed (feeds the playout buffer).
    std::size_t add_channel(std::unique_ptr<BurstChannel> channel);

    /// Start the playout clock (preroll runs from now) and put every NIC
    /// into deep sleep awaiting the first scheduled burst.  Pass
    /// \p start_playout = false for non-streaming clients (e.g. web
    /// browsing), whose QoS is not playout-based.
    void start(bool start_playout = true);

    /// Execute a server-scheduled burst: wake channel \p index's NIC just
    /// in time for \p start, transfer \p size, then deep-sleep the NIC.
    /// \p start must be at least the NIC's wake latency away.  \p ctx is
    /// the burst's causal trace identity (server flow id); it rides down
    /// into the channel and NIC so flight-recorder hops and energy-cause
    /// boundaries land on the right flow.
    void execute_burst(std::size_t index, DataSize size, Time start,
                       BurstChannel::Completion done, obs::TraceContext ctx = {});

    // --- client-aggregated information the server reads -------------------
    [[nodiscard]] const QosContract& contract() const { return contract_; }
    [[nodiscard]] ClientId id() const { return id_; }
    [[nodiscard]] std::vector<BurstChannel*> channels();
    [[nodiscard]] BurstChannel& channel(std::size_t index);
    [[nodiscard]] std::size_t channel_count() const { return channels_.size(); }
    /// Real client buffer headroom (the server plans with its own model;
    /// tests compare the two).
    [[nodiscard]] DataSize buffer_headroom() const { return playout_.headroom(); }

    // --- fault surface ------------------------------------------------------
    /// The device dies silently: NICs power off, received data is dropped,
    /// scheduled bursts through its channels fail.  The server is not told
    /// (that's the point — its liveness machinery has to notice).
    void crash();
    /// The device comes back (cold: NICs deep asleep, not registered).
    void revive();
    [[nodiscard]] bool crashed() const { return crashed_; }
    /// A server-scheduled burst has been issued but its transfer has not
    /// begun yet (the wake is in flight).  The burst-repair watchdog
    /// checks this to avoid reclaiming an interface a late wake is about
    /// to use.
    [[nodiscard]] bool burst_pending() const { return burst_pending_; }

    /// Attach the device battery (non-owning; must outlive the client).
    /// WNIC energy is charged to it lazily on each battery_level() query.
    void attach_battery(power::Battery& battery) { battery_ = &battery; }

    /// Battery level in [0, 1] the client RM reports to the server
    /// (paper §2: the server knows clients' battery levels).  1.0 when no
    /// battery is attached.  Charges WNIC energy consumed since the last
    /// query.
    [[nodiscard]] double battery_level();

    // --- ground truth metrics ----------------------------------------------
    [[nodiscard]] traffic::PlayoutBuffer& playout() { return playout_; }
    [[nodiscard]] const traffic::PlayoutBuffer& playout() const { return playout_; }
    /// Sum of all WNIC energies.
    [[nodiscard]] power::Energy wnic_energy() const;
    /// Average WNIC power since construction.
    [[nodiscard]] power::Power wnic_average_power() const;
    [[nodiscard]] std::uint64_t bursts_executed() const { return bursts_executed_; }
    [[nodiscard]] DataSize bytes_received() const { return bytes_received_; }

    /// Per-client transfer-activity trace (level 1 while receiving a
    /// burst) — the top half of the paper's Figure 1.
    [[nodiscard]] const sim::TimelineTrace& transfer_trace() const { return transfer_trace_; }
    [[nodiscard]] sim::TimelineTrace& transfer_trace() { return transfer_trace_; }

private:
    sim::Simulator& sim_;
    ClientId id_;
    QosContract contract_;
    traffic::PlayoutBuffer playout_;
    std::vector<std::unique_ptr<BurstChannel>> channels_;
    Time created_at_;
    std::uint64_t bursts_executed_ = 0;
    DataSize bytes_received_;
    sim::TimelineTrace transfer_trace_;
    power::Battery* battery_ = nullptr;
    power::Energy battery_charged_;  // WNIC energy already drained
    bool crashed_ = false;
    bool burst_pending_ = false;
};

}  // namespace wlanps::core
