#pragma once
/// \file calibration.hpp
/// Calibration constants for the IPAQ 3970 platform the paper measures.
///
/// Power numbers follow the paper's companion studies (Simunic et al.,
/// MMCN'05; Manjunath et al., WMASH'04) and the surveys it cites (Jones et
/// al. 2001; Karl 2003): an 802.11b CF card draws similar power in TX and
/// RX and almost as much while idle-listening — the basis of the paper's
/// "90% of the time listening" observation — while doze and off are one to
/// two orders of magnitude cheaper.  Bluetooth is an order of magnitude
/// cheaper when active, with sniff/park low-power modes.

#include "sim/units.hpp"
#include "sim/time.hpp"

namespace wlanps::phy::calibration {

using power::Power;
using power::Energy;

// ---- 802.11b CF WLAN card (IPAQ sleeve) --------------------------------
inline constexpr Power kWlanTx = Power::from_watts(1.400);
inline constexpr Power kWlanRx = Power::from_watts(0.950);
inline constexpr Power kWlanIdle = Power::from_watts(0.830);   // listening
inline constexpr Power kWlanDoze = Power::from_watts(0.045);   // PSM doze
inline constexpr Power kWlanOff = Power::from_watts(0.0);

/// off -> idle: firmware boot + re-association.
inline constexpr Time kWlanResumeLatency = Time::from_ms(300);
inline constexpr Power kWlanResumeDraw = Power::from_watts(0.40);
/// idle -> off teardown.
inline constexpr Time kWlanSuspendLatency = Time::from_ms(10);
/// doze <-> idle.
inline constexpr Time kWlanDozeWakeLatency = Time::from_ms(2);
inline constexpr Time kWlanDozeEnterLatency = Time::from_ms(1);

// 802.11b MAC/PHY timing (long preamble DSSS).
inline constexpr Time kWlanSlot = Time::from_us(20);
inline constexpr Time kWlanSifs = Time::from_us(10);
inline constexpr Time kWlanDifs = Time::from_us(50);          // SIFS + 2 slots
inline constexpr Time kWlanPlcpOverhead = Time::from_us(192);  // preamble+header @1Mb/s
inline constexpr int kWlanCwMin = 31;
inline constexpr int kWlanCwMax = 1023;
inline constexpr int kWlanRetryLimit = 7;
inline constexpr DataSize kWlanMacHeader = DataSize::from_bytes(34);  // hdr + FCS
inline constexpr DataSize kWlanAckFrame = DataSize::from_bytes(14);
inline constexpr DataSize kWlanMaxPayload = DataSize::from_bytes(2304);

inline constexpr Rate kWlanRate1 = Rate::from_mbps(1.0);
inline constexpr Rate kWlanRate2 = Rate::from_mbps(2.0);
inline constexpr Rate kWlanRate55 = Rate::from_mbps(5.5);
inline constexpr Rate kWlanRate11 = Rate::from_mbps(11.0);

/// One 802.11 time unit (TU), the unit beacon intervals are counted in.
inline constexpr Time kWlanTimeUnit = Time::from_us(1024);
/// Default beacon interval (102.4 ms = 100 TU) and TIM listen interval.
inline constexpr Time kWlanBeaconInterval = Time::from_us(102400);

// ---- Bluetooth module ---------------------------------------------------
inline constexpr Power kBtActive = Power::from_watts(0.120);  // connected, polling
inline constexpr Power kBtTx = Power::from_watts(0.150);
inline constexpr Power kBtRx = Power::from_watts(0.135);
inline constexpr Power kBtSniff = Power::from_watts(0.045);
inline constexpr Power kBtPark = Power::from_watts(0.012);
inline constexpr Power kBtOff = Power::from_watts(0.0);

inline constexpr Time kBtSlot = Time::from_us(625);
/// park -> active: beacon-train access + poll exchange (~6 slots).
inline constexpr Time kBtUnparkLatency = Time::from_us(6 * 625);
inline constexpr Time kBtParkEnterLatency = Time::from_us(2 * 625);
/// sniff -> active at the next sniff anchor (bounded by sniff interval; the
/// constant is the protocol part once the anchor arrives).
inline constexpr Time kBtUnsniffLatency = Time::from_us(2 * 625);
/// off -> active: inquiry + paging, seconds — why the scheduler parks
/// rather than powers BT off.
inline constexpr Time kBtConnectLatency = Time::from_seconds(2);
inline constexpr Power kBtConnectDraw = Power::from_watts(0.130);

/// DH5 ACL: 339-byte payload in 5 slots + 1 return slot -> 723.2 kb/s peak.
inline constexpr DataSize kBtDh5Payload = DataSize::from_bytes(339);
inline constexpr int kBtDh5Slots = 5;
inline constexpr Rate kBtAclPeak = Rate::from_kbps(723.2);

// ---- IPAQ 3970 base platform -------------------------------------------
/// CPU + memory + backlight-off baseline while decoding MP3.
inline constexpr Power kIpaqBase = Power::from_watts(1.300);
/// Battery: 1400 mAh Li-Ion at 3.7 V.
inline constexpr Energy kIpaqBattery = Energy::from_mah(1400, 3.7);

// ---- MP3 workload (high-quality stream of the Figure 2 experiment) ------
inline constexpr Rate kMp3Rate = Rate::from_kbps(128);
/// MPEG-1 Layer III, 44.1 kHz: 1152 samples per frame = 26.12 ms.
inline constexpr Time kMp3FrameInterval = Time::from_us(26122);
inline constexpr DataSize kMp3FrameSize = DataSize::from_bytes(418);

}  // namespace wlanps::phy::calibration
