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
// in keeps no CCA state and schedules nothing for it.
//
// A watching radio takes no event per signal either. It keeps at most one
// pending CCA wake, armed by update_cca() when the carrier is busy while
// the radio is idle, and due at the earliest instant the carrier could
// turn idle: strong_until_, the latest end of a delivered signal at or
// above cs_signal_dbm, while that lies ahead; otherwise (energy detect
// alone holds the carrier) the earliest end among the active signals. The
// wake re-runs update_cca(), which re-arms it while the carrier stays
// busy. Rx and tx need no wake: finish_rx and finish_tx call update_cca(),
// and so do transmit and lock, the only paths through abort_rx, once they
// have set the next state (abort_rx itself does not, so an aborted lock
// reports no idle edge between two busy states). This reports every edge
// at the instant an end event per signal would:
//  - carrier_busy() is piecewise constant in time. While the radio stays
//    idle it can only turn idle at a signal end, and no active signal ends
//    before the wake: a strong signal holds the carrier until
//    strong_until_, and the energy case wakes at the first end. An arrival
//    only adds power, so it never brings the idle instant forward; a state
//    change runs update_cca() itself.
//  - The wake is a local event scheduled when it is armed, so within its
//    instant it may run after other local events of the same node, where
//    an end event scheduled at delivery would run before them. The only
//    listener, DcfMac::on_cca, acts through resume_contention(), which
//    reads the exact carrier_busy(), so an edge that comes later within
//    its instant finds the MAC acting on the same truth. Same-instant
//    order across nodes is already irrelevant: a PDES run (docs/pdes.md)
//    runs each partition's local events in its own order and reproduces
//    the serial report byte for byte.
// A salvaging radio (integrated mode) still schedules an end event for
// every signal it tracks through deliver(): salvage runs there.
//
// Inert arrivals take no event at all. An arrival event (deliver()) does
// more than track the signal, and an arrival is inert when the medium can
// rule out, at transmit time, everything else it could do:
//  - lock or capture, and (salvaging) schedule an end event that tries to
//    salvage the frame: ruled out when the power is below sensitivity_dbm,
//    or when the radio is transmitting past the arrival's start (no lock
//    in kTx, and maybe_salvage hears nothing of a frame it talked over);
//  - raise strong_until_: carrier_busy() stays exact without it (below it
//    the scan decides), and the opt-in folds skipped signals back in, so
//    only a watched radio, which times its wake by it, needs the raise.
//    There it is ruled out by a power below cs_signal_dbm;
//  - report a CCA edge or arm the wake: nothing to do at an unwatched
//    radio. At a watched one, ruled out when the carrier is busy across
//    the start for a reason that outlasts it: strong_until_ > start, or
//    transmitting past the start. update_cca() at the start then finds
//    the carrier busy, as every update since the cover began did, and an
//    idle radio under cover already has its wake pending. Both comparisons
//    are strict: at start == strong_until_ or tx_end_, the wake or
//    finish_tx runs first in that instant and must not see the signal.
// The medium adds an inert arrival's signal to the tracker at transmit time
// instead (under PDES the receiver shares the sender's partition, since no
// row link crosses one, so the sender's thread owns the tracker). The
// tracker keeps signals in (start, frame id) order, the order arrival
// events run in at one receiver, so the early add lands where the event
// would have put it (phy/interference.h).
#pragma once

#include <algorithm>
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
  /// requested it (Radio::request_cca_notifications). An edge comes at the
  /// instant the carrier changed, but possibly after other local events of
  /// that instant; Radio::carrier_busy() is the truth at any moment.
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
    std::uint64_t cca_wakes = 0;  // CCA wake events run (watched radios)
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
  /// call; a busy carrier arms the CCA wake here, and inert arrivals still
  /// in flight get back the arrival event they skipped.
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
  ///
  /// While strong_until_ lies ahead it answers busy without scanning the
  /// tracked signals, and that answer is exact: only deliver() and the
  /// opt-in folds raise strong_until_, each for a signal at or above
  /// cs_signal_dbm whose start is at or before the instant of the fold, and
  /// the tracker drops no signal before its end. So a signal ending at
  /// strong_until_ is on the air and busies the carrier by itself. Inert
  /// arrivals never raise it: strong_until_ is a lower bound on the busy
  /// time, and below it the scan decides as before.
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

  /// Medium-facing entry point: `frame` begins arriving at this radio at
  /// `start`, received at `power_mw`. Not for MAC use.
  void deliver(std::shared_ptr<const Frame> frame, double power_mw,
               sim::Time start);

  /// Medium-facing: whether an arrival of `power_mw` starting at `start`
  /// is inert (see the file comment), judged at the transmit instant.
  bool inert_arrival(double power_mw, sim::Time start) const;
  /// Medium-facing: track an inert arrival's signal now, in place of its
  /// deliver() event. Only from the thread that runs this radio's events.
  void add_interference(const Signal& signal);

 private:
  enum class State { kIdle, kRx, kTx };

  bool locked_to(std::uint64_t frame_id) const {
    return state_ == State::kRx && lock_frame_->id == frame_id;
  }
  void on_signal_end(const Frame& frame);
  void evaluate_preamble(std::shared_ptr<const Frame> frame);
  void lock(std::shared_ptr<const Frame> frame, const Signal& sig);
  void finish_rx();
  void abort_rx();
  void finish_tx();
  void update_cca();
  void arm_cca_wake();
  // Fold a signal that is on the air into strong_until_.
  void note_strong(double power_mw, sim::Time end) {
    if (power_mw >= cs_signal_mw_) {
      strong_until_ = std::max(strong_until_, end);
    }
  }
  void maybe_salvage(const Frame& frame, const Signal& sig);

  // Payload window [begin, end) of segment `index` of `frame`, received as
  // `sig`, mapping payload bits proportionally onto the post-preamble
  // airtime.
  std::pair<sim::Time, sim::Time> segment_window(const Frame& frame,
                                                 const Signal& sig,
                                                 std::size_t index) const;
  bool evaluate_segment(const Frame& frame, const Signal& sig,
                        std::size_t index, double* min_sinr_db);

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

  // Current reception. The tracker keeps only frame ids: the frames the
  // radio can still need ride in the events that need them (preamble and
  // salvage) and, once locked, here.
  std::shared_ptr<const Frame> lock_frame_;  // set while kRx
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
  bool cca_wake_pending_ = false;
  // Latest end of a delivered signal at or above cs_signal_mw_.
  sim::Time strong_until_ = -1;
  double sinr_scale_;  // linear implementation loss
  double cs_signal_mw_;
  double energy_detect_mw_;
  double sensitivity_mw_;
  double capture_ratio_;
  double preamble_min_sinr_;

  Counters counters_;
};

}  // namespace cmap::phy
