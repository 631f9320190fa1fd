// Shared fixtures for radio/medium tests: a controlled world with Friis
// propagation, no fading, and a recording listener.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "phy/medium.h"
#include "phy/radio.h"

namespace cmap::phy::testing {

/// Records every listener callback in order.
class RecordingListener : public RadioListener {
 public:
  struct RxEvent {
    Frame frame;
    RxResult result;
  };

  void on_rx_start(const Frame& f, sim::Time end) override {
    rx_starts.push_back(f);
    (void)end;
  }
  void on_header_decoded(const Frame& f, bool ok) override {
    header_frames.push_back(f);
    header_ok.push_back(ok);
  }
  void on_rx_end(const Frame& f, const RxResult& r) override {
    rx_ends.push_back({f, r});
  }
  void on_salvage(const Frame& f, const RxResult& r) override {
    salvages.push_back({f, r});
  }
  void on_cca(bool busy) override { cca_changes.push_back(busy); }
  void on_tx_end(const Frame& f) override { tx_ends.push_back(f); }

  std::vector<Frame> rx_starts;
  std::vector<Frame> header_frames;
  std::vector<bool> header_ok;
  std::vector<RxEvent> rx_ends;
  std::vector<RxEvent> salvages;
  std::vector<bool> cca_changes;
  std::vector<Frame> tx_ends;
};

/// Whether a test radio opts in to CCA edge callbacks, as a carrier-sensing
/// MAC does (Radio::request_cca_notifications), or leaves them off, as CMAP
/// does.
enum class Cca { kWatched, kUnwatched };

/// A little world: N radios on a line, configurable spacing, Friis
/// propagation, fading off, threshold or NIST error model.
class World {
 public:
  explicit World(std::shared_ptr<const ErrorModel> model,
                 MediumConfig mcfg = NoFadingConfig(),
                 std::shared_ptr<const PropagationModel> prop = nullptr)
      : model_(std::move(model)),
        medium_(prop ? std::move(prop) : std::make_shared<FriisPropagation>(),
                mcfg, sim::Rng(99)) {}

  static MediumConfig NoFadingConfig() {
    MediumConfig m;
    m.fading_sigma_db = 0.0;
    return m;
  }

  Radio& add_radio(NodeId id, Position pos, RadioConfig cfg = {},
                   Cca cca = Cca::kWatched) {
    radios_.push_back(std::make_unique<Radio>(sim_, medium_, id, pos, cfg,
                                              model_, sim::Rng(1000 + id)));
    listeners_.push_back(std::make_unique<RecordingListener>());
    radios_.back()->set_listener(listeners_.back().get());
    if (cca == Cca::kWatched) radios_.back()->request_cca_notifications();
    return *radios_.back();
  }

  RecordingListener& listener(std::size_t i) { return *listeners_[i]; }
  Radio& radio(std::size_t i) { return *radios_[i]; }
  sim::Simulator& simulator() { return sim_; }
  Medium& medium() { return medium_; }

  /// A single-segment frame of `bytes` payload.
  static Frame whole_frame(std::size_t bytes,
                           WifiRate rate = WifiRate::k6Mbps) {
    Frame f;
    f.rate = rate;
    f.segments = {{SegmentKind::kWhole, bytes}};
    return f;
  }

  /// A header/body/trailer frame (integrated-PHY shape).
  static Frame hbt_frame(std::size_t header, std::size_t body,
                         std::size_t trailer,
                         WifiRate rate = WifiRate::k6Mbps) {
    Frame f;
    f.rate = rate;
    f.segments = {{SegmentKind::kHeader, header},
                  {SegmentKind::kBody, body},
                  {SegmentKind::kTrailer, trailer}};
    return f;
  }

 private:
  std::shared_ptr<const ErrorModel> model_;
  sim::Simulator sim_;
  Medium medium_;
  std::vector<std::unique_ptr<Radio>> radios_;
  std::vector<std::unique_ptr<RecordingListener>> listeners_;
};

}  // namespace cmap::phy::testing
