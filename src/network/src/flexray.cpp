#include "ev/network/flexray.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace ev::network {

std::size_t FlexRayBus::frame_bits(std::size_t payload_bytes) noexcept {
  // 8 bytes header+trailer with the payload, each byte preceded by a 2-bit
  // byte-start sequence, plus transmission start/end sequences (~14 bits).
  return (5 + payload_bytes + 3) * 10 + 14;
}

FlexRayBus::FlexRayBus(sim::Simulator& sim, std::string name, FlexRayConfig config,
                       double bit_rate_bps)
    : Bus(sim, std::move(name), bit_rate_bps), config_(std::move(config)) {
  slot_s_ = static_cast<double>(frame_bits(config_.static_payload_bytes)) / bit_rate() +
            2e-6;  // action-point offset margin
  static_segment_s_ = slot_s_ * static_cast<double>(config_.static_slots.size());
  cycle_s_ = static_segment_s_ +
             static_cast<double>(config_.minislot_count) * config_.minislot_s + config_.nit_s;
  static_buffer_.resize(config_.static_slots.size());
  for (std::size_t i = 0; i < config_.static_slots.size(); ++i) {
    const auto [it, inserted] = static_index_.emplace(config_.static_slots[i].frame_id, i);
    if (!inserted)
      throw std::invalid_argument("FlexRayBus: duplicate frame id in static schedule");
  }
}

bool FlexRayBus::do_send(Frame frame) {
  if (frame.created == sim::Time{}) frame.created = simulator().now();
  frame.sequence = next_sequence();
  const auto it = static_index_.find(frame.id);
  if (it != static_index_.end()) {
    frame.payload_size = config_.static_slots[it->second].payload_bytes;
    static_buffer_[it->second] = std::move(frame);
    arm_cycle();
    return true;
  }
  // Dynamic segment: the frame must fit in the minislot budget of one cycle.
  const double tx_s = static_cast<double>(frame_bits(frame.payload_size)) / bit_rate();
  const double dyn_s = static_cast<double>(config_.minislot_count) * config_.minislot_s;
  if (tx_s > dyn_s) return false;
  dynamic_queue_.push_back(std::move(frame));
  arm_cycle();
  return true;
}

void FlexRayBus::start(sim::Time start) {
  if (clock_.started()) return;
  clock_.start(simulator().now(), start, sim::Time::seconds(cycle_s_));
  const bool static_waiting =
      std::any_of(static_buffer_.begin(), static_buffer_.end(),
                  [](const std::optional<Frame>& slot) { return slot.has_value(); });
  if (static_waiting || !dynamic_queue_.empty()) arm_cycle();
}

void FlexRayBus::run_cycle() {
  clock_.ticked(simulator().now());
  // Dynamic segment order: ascending id, then send order. A dynamic frame
  // occupies a whole number of minislots.
  std::sort(dynamic_queue_.begin(), dynamic_queue_.end(), [](const Frame& a, const Frame& b) {
    if (a.id != b.id) return a.id < b.id;
    return a.sequence < b.sequence;
  });
  const auto tx_s_of = [this](const Frame& frame) {
    return static_cast<double>(frame_bits(frame.payload_size)) / bit_rate();
  };
  const auto occupied_s_of = [this](double tx_s) {
    return std::ceil(tx_s / config_.minislot_s) * config_.minislot_s;
  };
  const double dyn_budget_s =
      static_cast<double>(config_.minislot_count) * config_.minislot_s;

  // Plan the dynamic segment first: frames are served until one no longer
  // fits in what remains. Leftovers ride the next cycle, which is armed
  // before this cycle schedules any delivery.
  std::size_t served = 0;
  double used_s = 0.0;
  for (; served < dynamic_queue_.size(); ++served) {
    const double occupied_s = occupied_s_of(tx_s_of(dynamic_queue_[served]));
    if (used_s + occupied_s > dyn_budget_s) break;
    used_s += occupied_s;
  }
  if (served < dynamic_queue_.size()) arm_cycle();

  // --- Static segment: each slot fires at its fixed offset -----------------
  for (std::size_t i = 0; i < static_buffer_.size(); ++i) {
    if (!static_buffer_[i]) continue;
    Frame frame = *static_buffer_[i];
    static_buffer_[i].reset();
    const double offset_s = slot_s_ * static_cast<double>(i);
    const double tx_s =
        static_cast<double>(frame_bits(config_.static_payload_bytes)) / bit_rate();
    account_busy(sim::Time::seconds(tx_s));
    simulator().schedule_in(sim::Time::seconds(offset_s + tx_s),
                            [this, frame = std::move(frame)] { deliver(frame); });
  }

  // --- Dynamic segment: the planned frames, minislot-counted ----------------
  used_s = 0.0;
  for (std::size_t i = 0; i < served; ++i) {
    const double tx_s = tx_s_of(dynamic_queue_[i]);
    const double offset_s = static_segment_s_ + used_s;
    account_busy(sim::Time::seconds(tx_s));
    simulator().schedule_in(sim::Time::seconds(offset_s + tx_s),
                            [this, frame = std::move(dynamic_queue_[i])] { deliver(frame); });
    used_s += occupied_s_of(tx_s);
  }
  dynamic_queue_.erase(dynamic_queue_.begin(),
                       dynamic_queue_.begin() + static_cast<std::ptrdiff_t>(served));
}

}  // namespace ev::network
