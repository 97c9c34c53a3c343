#pragma once
/// \file hotspot_world.hpp
/// The hotspot world (paper §2): one HotspotServer on one event queue,
/// serving stored MP3, proxied A/V, or a MixedWorkload's rows over a
/// WLAN interface and one Bluetooth piconet.  City scale is the
/// federation (src/fed).  See DESIGN.md §12.

#include <cstdint>

#include "core/scenario_spec.hpp"

namespace wlanps::core {

/// Build and run the world of the validated hotspot \p spec, with \p seed
/// as the root RNG seed (it overrides spec.stream().seed).  RNG streams:
/// piconet 100, client rows 300/400/500 + row offset, fault injector 900,
/// schedule drops 902, rejoin agents 910 + index.
[[nodiscard]] ScenarioResult sim_hotspot(const ScenarioSpec& spec, std::uint64_t seed);

}  // namespace wlanps::core
