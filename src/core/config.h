// CMAP protocol parameters. Defaults are the prototype's values from §4.2
// of the paper; integrated_defaults() models the PPR-hardware realization
// of the PHY abstraction (§2.1) where the shim's latency workarounds are
// unnecessary.
#pragma once

#include <cstddef>

#include "phy/wifi_rate.h"
#include "sim/time.h"

namespace cmap::core {

/// How the §2.1 PHY abstraction is realized.
enum class PhyMode {
  kShim,        // separate header/trailer packets around Nvpkt data packets
  kIntegrated,  // header/trailer segments inside each data frame (PPR)
};

struct CmapConfig {
  PhyMode mode = PhyMode::kShim;

  // Virtual packet / window geometry (§4.2). validate() wants nvpkt in
  // [1, 64] (the per-VP ACK bitmap is 64 bits) and nwindow_vps >= 1.
  int nvpkt = 32;       // data packets per virtual packet
  int nwindow_vps = 8;  // send window in virtual packets

  // Timing (§4.2): 5 ms accommodates the software-MAC latency the
  // prototype measured between the Click MAC and the hardware PHY.
  sim::Time t_ackwait = sim::milliseconds(5);
  sim::Time t_deferwait = sim::milliseconds(5);

  // Backoff policy (§3.4): contention window is a *duration* here because
  // decisions happen once per virtual packet; values are the 802.11
  // constants scaled by Nvpkt (§4.2).
  sim::Time cw_start = sim::milliseconds(5);
  sim::Time cw_max = sim::milliseconds(320);
  double l_backoff = 0.5;

  // Conflict inference (§3.1).
  double l_interf = 0.5;        // loss threshold for interference
  int min_interf_samples = 16;  // packets observed before judging a pair
  sim::Time interferer_halflife = sim::seconds(2);   // stat aging
  sim::Time ilist_period = sim::seconds(1);          // broadcast interval
  sim::Time defer_entry_ttl = sim::seconds(20);      // defer table aging

  // Receiver bookkeeping.
  sim::Time vp_finalize_grace = sim::milliseconds(2);

  // Rates: data vs control (headers, trailers, ACKs, interferer lists are
  // always sent at the base rate, as in §5.8).
  phy::WifiRate data_rate = phy::WifiRate::k6Mbps;
  phy::WifiRate control_rate = phy::WifiRate::k6Mbps;

  // Extension toggles.
  bool per_dest_queues = false;  // §3.2 optimization
  bool annotate_rates = false;   // §3.5 multi-bitrate conflict maps

  std::size_t queue_limit = 512;
  std::size_t nominal_packet_bytes = 1400;  // for timeout arithmetic
  int retx_limit = 16;  // transmissions per packet before giving up

  /// Send window measured in data packets.
  std::size_t window_packets() const {
    return static_cast<std::size_t>(nvpkt) *
           static_cast<std::size_t>(nwindow_vps);
  }

  /// Retransmission timeout bounds (§3.3): tau_max is the airtime of a full
  /// window of packets; tau_min is half that.
  sim::Time tau_max() const {
    const double bits = static_cast<double>(window_packets()) * 8.0 *
                        static_cast<double>(nominal_packet_bytes);
    return sim::transmission_time(static_cast<std::int64_t>(bits),
                                  phy::rate_info(data_rate).bits_per_second);
  }
  sim::Time tau_min() const { return tau_max() / 2; }

  /// The PPR-hardware realization: per-packet virtual packets, tight ACK
  /// turnaround, in-frame header/trailer segments.
  static CmapConfig integrated_defaults() {
    CmapConfig c;
    c.mode = PhyMode::kIntegrated;
    c.nvpkt = 1;
    // Window of 8 single-packet VPs; the cumulative ACK then carries 8
    // per-VP bitmaps (~104 B, ~164 us at 6 Mbit/s), fitting comfortably
    // inside the ACK wait so the sender is still listening when it lands.
    c.nwindow_vps = 8;
    c.t_ackwait = sim::microseconds(400);
    c.t_deferwait = sim::microseconds(400);
    c.cw_start = sim::microseconds(156);  // 802.11-like CWstart in time
    c.cw_max = sim::milliseconds(10);
    return c;
  }

  bool operator==(const CmapConfig&) const = default;
};

/// Abort naming the first invalid field (CmapMac and World both run it).
void validate(const CmapConfig& config);

}  // namespace cmap::core
