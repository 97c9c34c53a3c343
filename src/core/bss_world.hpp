#pragma once
/// \file bss_world.hpp
/// Every BSS-family world comes from one class: one hub streaming MP3 to
/// N clients.  That covers the paper's Figure 2 baselines (cam, psm, bt),
/// its MAC-layer survey (ecmac, pamas) and μNap.  The hub is an access
/// point (cam, psm, micro_nap, pamas), an EC-MAC controller or a
/// Bluetooth piconet; each client row is built, started and folded the
/// same way whatever the hub.  See DESIGN.md §14.

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/scenario_spec.hpp"
#include "sim/random.hpp"

namespace wlanps::mac {
class Bss;
class AccessPoint;
class EcMacController;
}  // namespace wlanps::mac

namespace wlanps::bt {
class Piconet;
}

namespace wlanps::policy {
class PolicyStation;
}

namespace wlanps::fault {
class FaultInjector;
}

namespace wlanps::obs {
class EnergyLedger;
}

namespace wlanps::core {

/// One hub and its client rows, built into an external Simulator: the
/// SimBackend runs one on a single queue, and the determinism tests put
/// one on each shard of a ShardedSimulator.
class BssWorld {
public:
    /// Build the validated BSS-family \p spec (cam, psm, ecmac, bt, or
    /// cam under micro_nap / pamas) into \p sim, with \p seed as the root
    /// RNG seed: the hub forks 100, station i 200+i, its link 300+i.
    /// Client i+1's radio charges \p ledger (nullptr: no attribution).
    /// The ledger is explicit because the thread-local
    /// obs::current_ledger() is invisible to sharded worker threads.
    BssWorld(sim::Simulator& sim, const ScenarioSpec& spec, std::uint64_t seed,
             obs::EnergyLedger* ledger);
    ~BssWorld();
    BssWorld(const BssWorld&) = delete;
    BssWorld& operator=(const BssWorld&) = delete;

    /// Route \p injector's hooks for the kinds \p faults accepts into an
    /// access-point world: per-station radio faults, beacon loss and
    /// PS-Poll drops (fork 901) at the AP, per-station link windows.
    void bind_faults(fault::FaultInjector& injector, const FaultSurface& faults);

    /// Start the hub, the stations, the playout buffers, then the sources.
    void start();

    /// End of run: settle each radio's ledger tail, fold the per-client
    /// metrics, and publish each radio (phy.wlan or phy.bt) and the
    /// client and kernel folds into obs::current(), when one is set.
    [[nodiscard]] ScenarioResult finish();

    /// Client \p i's station in a micro_nap or pamas world.
    [[nodiscard]] policy::PolicyStation& policy_station(int i);

private:
    struct Row;

    sim::Simulator& sim_;
    const sim::Random root_;
    std::string label_;
    std::unique_ptr<mac::Bss> bss_;  // every hub but the piconet
    std::unique_ptr<mac::AccessPoint> ap_;
    std::unique_ptr<mac::EcMacController> ecmac_;
    std::unique_ptr<bt::Piconet> piconet_;
    std::vector<Row> rows_;
};

}  // namespace wlanps::core
