// Counters every MAC implementation exports; experiment harnesses read
// these to compute throughput and loss.
#pragma once

#include <cstdint>

namespace cmap::mac {

struct MacStats {
  // Sender side.
  std::uint64_t enqueued = 0;
  std::uint64_t dropped_queue_full = 0;
  std::uint64_t data_frames_sent = 0;      // incl. retransmissions
  std::uint64_t retransmissions = 0;
  std::uint64_t dropped_retry_limit = 0;
  std::uint64_t acks_received = 0;
  std::uint64_t ack_timeouts = 0;
  std::uint64_t deferrals = 0;             // CMAP: defer-table-driven waits

  // Receiver side.
  std::uint64_t delivered = 0;             // unique packets passed up
  std::uint64_t duplicates = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t corrupt_frames = 0;        // locked but failed CRC

  bool operator==(const MacStats&) const = default;
};

}  // namespace cmap::mac
