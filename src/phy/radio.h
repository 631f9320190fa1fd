// Half-duplex radio state machine: IDLE / RX (locked to one frame) / TX.
//
// Reception follows real 802.11 receivers: a frame is only decodable if its
// preamble was heard while idle with sufficient SINR ("lock"); a frame
// arriving during another reception is interference, unless it is strong
// enough to capture the receiver (message-in-message, §6 of the paper
// references Whitehouse et al.). Per-segment success is evaluated with
// chunked SINR at frame end. In integrated-PHY mode the radio additionally
// salvages header/trailer segments of frames it never locked to — the PPR
// behaviour CMAP's conflict map relies on (paper §2.1, Figure 5).
//
// Carrier sense is on demand. carrier_busy() always answers exactly, but
// CCA edge callbacks (RadioListener::on_cca) reach only a radio whose MAC
// called request_cca_notifications(): DCF with carrier sense on does, CMAP
// and the carrier-sense-off DCF schemes do not. A radio that has not opted
// in keeps no CCA state and, unless it salvages (integrated mode), schedules
// no event at the end of each arriving signal — that event exists only to
// re-evaluate CCA and to salvage.
//
// Inert arrivals take no event at all. An arrival is inert when the radio
// has not opted in to CCA and either its power is below sensitivity_dbm, or
// the radio does not salvage and is transmitting past the arrival's start.
// Its arrival event could only have added the signal to the interference
// tracker, so the medium adds it there at transmit time instead (only when
// sender and receiver share a partition: the sender's thread must own the
// tracker). The tracker keeps signals in (start, frame id) order, the order
// arrival events run in at one receiver, so the early add lands where the
// event would have put it (phy/interference.h). A salvaging radio is exempt
// from the transmitting rule. maybe_salvage would skip such a signal at its
// end, since the radio talked over its start, but request_cca_notifications
// relies on a salvaging radio having scheduled an end event for every
// signal at or above sensitivity.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "metrics/metrics.h"
#include "phy/error_model.h"
#include "phy/frame.h"
#include "phy/interference.h"
#include "phy/types.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "trace/trace.h"

namespace cmap::phy {

class Medium;

struct RadioConfig {
  double tx_power_dbm = 10.0;
  double noise_floor_dbm = -94.0;    // thermal + NF over 20 MHz
  double sensitivity_dbm = -92.0;    // min power to attempt a preamble lock
  double cs_signal_dbm = -92.0;      // preamble-based carrier sense
  double energy_detect_dbm = -82.0;  // total-energy carrier sense
  double preamble_min_sinr_db = 1.0; // SINR needed to sync to a preamble
  double capture_margin_db = 10.0;   // stronger-by margin to re-lock
  bool capture_enabled = true;
  // Gap between the idealized analytic error model and commodity hardware;
  // divides SINR before the error model.
  double implementation_loss_db = 5.0;
  // Integrated-PHY (PPR) mode: salvage kHeader/kTrailer segments of frames
  // the radio never locked onto. testbed::World sets it from the run's
  // scheme and aborts if a TestbedConfig sets it.
  bool salvage_enabled = false;

  bool operator==(const RadioConfig&) const = default;
};

/// Callbacks a MAC implements to drive/observe its radio. All callbacks run
/// inside simulation events; implementations may schedule or transmit but
/// must tolerate reentrant CCA notifications.
class RadioListener {
 public:
  virtual ~RadioListener() = default;
  /// Locked onto `frame`; reception will finish at `end_time`.
  virtual void on_rx_start(const Frame& frame, sim::Time end_time) {
    (void)frame;
    (void)end_time;
  }
  /// Integrated mode only: the kHeader segment decoded (or not) mid-frame.
  virtual void on_header_decoded(const Frame& frame, bool ok) {
    (void)frame;
    (void)ok;
  }
  /// A locked frame finished; per-segment outcomes in `result`.
  virtual void on_rx_end(const Frame& frame, const RxResult& result) {
    (void)frame;
    (void)result;
  }
  /// Integrated mode: header/trailer salvaged from a frame never locked.
  virtual void on_salvage(const Frame& frame, const RxResult& result) {
    (void)frame;
    (void)result;
  }
  /// Carrier-sense (CCA) state changed. Only called on a radio that
  /// requested it (Radio::request_cca_notifications).
  virtual void on_cca(bool busy) { (void)busy; }
  /// Own transmission completed.
  virtual void on_tx_end(const Frame& frame) { (void)frame; }
};

class Radio {
 public:
  struct Counters {
    std::uint64_t frames_sent = 0;
    std::uint64_t locks = 0;
    std::uint64_t rx_ok = 0;          // all segments decoded
    std::uint64_t rx_corrupt = 0;     // locked but some segment failed
    std::uint64_t preamble_failures = 0;
    std::uint64_t aborted_by_tx = 0;
    std::uint64_t aborted_by_capture = 0;
    std::uint64_t salvages = 0;
  };

  Radio(sim::Simulator& simulator, Medium& medium, NodeId id, Position pos,
        RadioConfig config, std::shared_ptr<const ErrorModel> error_model,
        sim::Rng rng);
  Radio(const Radio&) = delete;
  Radio& operator=(const Radio&) = delete;

  /// Swaps the callback target only; the CCA opt-in below stays with the
  /// radio.
  void set_listener(RadioListener* listener) { listener_ = listener; }

  /// Opt in to on_cca edge callbacks from now on (idempotent). The first
  /// edge reported is a change from the carrier state at the time of the
  /// call; signals already on the air get their end events here, and inert
  /// arrivals still in flight get back the arrival event they skipped.
  void request_cca_notifications();

  /// Transmit `frame` at the configured power. Aborts any reception in
  /// progress (half-duplex). The radio assigns the frame id and duration.
  void transmit(Frame frame);

  bool transmitting() const { return state_ == State::kTx; }
  bool receiving() const { return state_ == State::kRx; }

  /// Carrier-sense: busy when transmitting, locked onto a frame, any single
  /// signal exceeds the preamble-CS threshold, or total energy exceeds the
  /// energy-detect threshold. An inert arrival starting at exactly now()
  /// counts, even where its skipped arrival event would have run later in
  /// the same tick.
  bool carrier_busy() const;

  NodeId id() const { return id_; }
  /// The medium this radio is attached to (MACs bind their TraceHooks
  /// through it).
  Medium& medium() const { return medium_; }
  /// The simulator this radio's events run on — the partition simulator
  /// under PDES, the run simulator otherwise. The medium reads the
  /// transmit clock from here.
  sim::Simulator& simulator() const { return sim_; }
  const Position& position() const { return position_; }
  /// Move the radio; the medium re-caches this radio's links in both
  /// directions.
  void set_position(Position pos);
  const RadioConfig& config() const { return config_; }
  const Counters& counters() const { return counters_; }
  const InterferenceTracker& interference() const { return tracker_; }

  /// Medium-facing entry point: a signal begins arriving at this radio.
  /// Not for MAC use.
  void deliver(Signal signal);

  /// Medium-facing: whether an arrival of `power_mw` starting at `start`
  /// is inert (see the file comment), judged at the transmit instant.
  bool inert_arrival(double power_mw, sim::Time start) const;
  /// Medium-facing: track an inert arrival's signal now, in place of its
  /// deliver() event. Only from the thread that runs this radio's events.
  void add_interference(Signal signal);

 private:
  enum class State { kIdle, kRx, kTx };

  void schedule_signal_end(std::uint64_t frame_id, sim::Time end);
  void on_signal_end(std::uint64_t frame_id);
  void evaluate_preamble(std::uint64_t frame_id);
  void lock(const Signal& sig);
  void finish_rx();
  void abort_rx();
  void finish_tx();
  void update_cca();
  void maybe_salvage(const Signal& sig);

  // Payload window [begin, end) of segment `index` of `sig`'s frame,
  // mapping payload bits proportionally onto the post-preamble airtime.
  std::pair<sim::Time, sim::Time> segment_window(const Signal& sig,
                                                 std::size_t index) const;
  bool evaluate_segment(const Signal& sig, std::size_t index,
                        double* min_sinr_db);

  sim::Simulator& sim_;
  Medium& medium_;
  NodeId id_;
  Position position_;
  RadioConfig config_;
  std::shared_ptr<const ErrorModel> error_model_;
  sim::Rng rng_;
  RadioListener* listener_ = nullptr;

  State state_ = State::kIdle;
  InterferenceTracker tracker_;

  // Current reception.
  std::uint64_t lock_frame_id_ = 0;
  double lock_power_mw_ = 0.0;
  sim::EventId rx_finish_event_;
  sim::EventId header_event_;
  std::vector<std::optional<bool>> segment_results_;
  double lock_min_sinr_db_ = 1e9;

  // Current / most recent transmission, and the end of the one before it
  // (for salvage overlap checks).
  std::shared_ptr<const Frame> tx_frame_;
  sim::Time tx_start_ = -1;
  sim::Time tx_end_ = -1;
  sim::Time prev_tx_end_ = -1;
  std::uint64_t tx_seq_ = 0;  // per-radio counter behind make_frame_id

  trace::TraceHook trace_;
  metrics::MetricsHook metrics_;
  bool watch_cca_ = false;  // set by request_cca_notifications()
  bool last_cca_busy_ = false;
  double sinr_scale_;  // linear implementation loss
  double cs_signal_mw_;
  double energy_detect_mw_;
  double sensitivity_mw_;
  double capture_ratio_;
  double preamble_min_sinr_;

  Counters counters_;
};

}  // namespace cmap::phy
