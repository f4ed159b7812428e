/// \file most.h
/// Media Oriented Systems Transport model: the infotainment ring of Fig. 1.
/// MOST divides a fixed 44.1 kHz frame into a synchronous region (reserved
/// streaming bandwidth, constant latency) and an asynchronous region
/// (packet data, FCFS) — modelled here at the bandwidth-allocation level.
///
/// The frame clock runs only while asynchronous data waits (FrameClock):
/// an async frame enqueued at instant t starts in the first grid frame
/// start + k·period at or after t that has not already run. Synchronous
/// streams need no clock; they arrive one frame period after their send.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "ev/network/bus.h"
#include "ev/network/frame_clock.h"

namespace ev::network {

/// A reserved synchronous stream.
struct MostStream {
  std::uint32_t stream_id = 0;    ///< Frame id carrying this stream.
  std::size_t bytes_per_frame = 4;  ///< Reserved bytes in every MOST frame.
};

/// MOST25-style ring: 25 Mbit/s gross, 512-bit frames at 44.1 kHz.
class MostBus : public Bus {
 public:
  MostBus(sim::Simulator& sim, std::string name, std::vector<MostStream> streams,
          double bit_rate_bps = 25e6, double frame_rate_hz = 44100.0);

  /// Fixes the frame grid at \p start; frames run from then on whenever
  /// asynchronous data waits.
  void start(sim::Time start = {});

  /// Frame period [s].
  [[nodiscard]] double frame_period_s() const noexcept { return 1.0 / frame_rate_hz_; }
  /// Bytes of every frame reserved for synchronous streams.
  [[nodiscard]] std::size_t synchronous_bytes() const noexcept { return sync_bytes_; }
  /// Bytes per frame available to asynchronous traffic.
  [[nodiscard]] std::size_t async_bytes_per_frame() const noexcept;
  /// Whether \p id has a reserved synchronous stream (constant latency path).
  [[nodiscard]] bool is_synchronous(std::uint32_t id) const {
    return streams_.count(id) > 0;
  }

 protected:
  /// Synchronous ids deliver after exactly one frame period (isochronous
  /// pipeline); other ids use the asynchronous region, which serves a
  /// limited byte budget per frame FCFS.
  bool do_send(Frame frame) override;

 private:
  /// One MOST frame: serves the async queue head-first within the frame's
  /// byte budget.
  void run_frame();
  void arm_frame() { clock_.arm(simulator(), [this] { run_frame(); }); }

  std::map<std::uint32_t, MostStream> streams_;
  double frame_rate_hz_;
  std::size_t frame_bytes_;  ///< Total bytes per MOST frame.
  std::size_t sync_bytes_ = 0;
  std::vector<Frame> async_queue_;  ///< FCFS; entries before async_head_ are done.
  std::size_t async_head_ = 0;      ///< Index of the frame being carried.
  std::size_t async_progress_bytes_ = 0;  ///< Bytes of queue head already carried.
  FrameClock clock_;
};

}  // namespace ev::network
