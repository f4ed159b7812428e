/// \file frame_clock.h
/// The clock of a time-triggered bus (the MOST frame, the FlexRay cycle),
/// armed only while a frame waits. Ticks fall on the grid start + k·period
/// that a free-running clock would follow, so frames leave at the same
/// instants; an idle bus schedules nothing.
///
/// Tie rule: a frame enqueued at instant t rides the first grid tick at or
/// after t that has not already run. A send made at a tick's instant by an
/// event that runs after the tick therefore waits one period.
#pragma once

#include <stdexcept>
#include <utility>

#include "ev/sim/simulator.h"

namespace ev::network {

/// One-shot tick scheduler on a fixed grid. The owning bus calls arm()
/// whenever a frame is queued, and its tick handler calls ticked() first
/// and arm() again, before scheduling any delivery, if frames remain: the
/// next tick then precedes this tick's deliveries at equal timestamps, as a
/// periodic event re-armed before its handler would.
class FrameClock {
 public:
  /// Fixes the grid: ticks at \p start + k·\p period. Throws
  /// std::invalid_argument for a non-positive period or a start before
  /// \p now.
  void start(sim::Time now, sim::Time start, sim::Time period) {
    if (period <= sim::Time{}) throw std::invalid_argument("FrameClock: period must be positive");
    if (start < now) throw std::invalid_argument("FrameClock: cannot start in the past");
    start_ = start;
    period_ = period;
    last_tick_ = start - period;  // no tick has run
    started_ = true;
  }

  /// Whether start() has fixed the grid.
  [[nodiscard]] bool started() const noexcept { return started_; }

  /// Schedules \p tick on \p sim at next_tick(now). No-op before start() or
  /// while a tick is already armed.
  template <typename Tick>
  void arm(sim::Simulator& sim, Tick&& tick) {
    if (!started_ || armed_) return;
    armed_ = true;
    sim.schedule_at(next_tick(sim.now()), std::forward<Tick>(tick));
  }

  /// Records that the armed tick is running at \p now.
  void ticked(sim::Time now) noexcept {
    armed_ = false;
    last_tick_ = now;
  }

 private:
  /// The tick a frame enqueued at \p now rides: the first grid instant at or
  /// after \p now that has not already run.
  [[nodiscard]] sim::Time next_tick(sim::Time now) const noexcept {
    const sim::Time at =
        now > start_ ? start_ + period_ * ((now - start_ + period_ - sim::Time::ns(1)) / period_)
                     : start_;
    return at > last_tick_ ? at : last_tick_ + period_;
  }

  sim::Time start_{};
  sim::Time period_{};
  sim::Time last_tick_{};
  bool started_ = false;
  bool armed_ = false;
};

}  // namespace ev::network
