#include "ev/network/most.h"

#include <stdexcept>

namespace ev::network {

MostBus::MostBus(sim::Simulator& sim, std::string name, std::vector<MostStream> streams,
                 double bit_rate_bps, double frame_rate_hz)
    : Bus(sim, std::move(name), bit_rate_bps), frame_rate_hz_(frame_rate_hz) {
  frame_bytes_ = static_cast<std::size_t>(bit_rate_bps / frame_rate_hz / 8.0);
  for (const auto& s : streams) {
    if (!streams_.emplace(s.stream_id, s).second)
      throw std::invalid_argument("MostBus: duplicate stream id");
    sync_bytes_ += s.bytes_per_frame;
  }
  if (sync_bytes_ > frame_bytes_)
    throw std::invalid_argument("MostBus: synchronous reservation exceeds frame size");
}

std::size_t MostBus::async_bytes_per_frame() const noexcept {
  // Control channel and management overhead take a fixed share (~6 bytes of
  // a 64-byte MOST25 frame).
  const std::size_t overhead = frame_bytes_ / 10;
  return frame_bytes_ - sync_bytes_ - overhead;
}

bool MostBus::do_send(Frame frame) {
  if (frame.created == sim::Time{}) frame.created = simulator().now();
  frame.sequence = next_sequence();
  const auto it = streams_.find(frame.id);
  if (it != streams_.end()) {
    // Isochronous: the sample block is carried in the reserved bytes of the
    // next frame and arrives one frame period later.
    account_busy(tx_time(it->second.bytes_per_frame * 8));
    simulator().schedule_in(sim::Time::seconds(frame_period_s()),
                            [this, frame = std::move(frame)] { deliver(frame); });
    return true;
  }
  async_queue_.push_back(std::move(frame));
  arm_frame();
  return true;
}

void MostBus::start(sim::Time start) {
  if (clock_.started()) return;
  clock_.start(simulator().now(), start, sim::Time::seconds(frame_period_s()));
  if (async_head_ < async_queue_.size()) arm_frame();
}

void MostBus::run_frame() {
  clock_.ticked(simulator().now());
  // Plan the frame first: the queued frames [async_head_, finished) complete in
  // it and the one after them carries `partial` more bytes. If any remain,
  // the next frame is armed before this one's deliveries are scheduled.
  std::size_t budget = async_bytes_per_frame();
  std::size_t finished = async_head_;
  std::size_t progress = async_progress_bytes_;
  std::size_t partial = 0;
  while (finished < async_queue_.size() && budget > 0) {
    const std::size_t remaining = async_queue_[finished].payload_size - progress;
    if (remaining > budget) {
      partial = budget;
      break;
    }
    budget -= remaining;
    progress = 0;
    ++finished;
  }
  if (finished < async_queue_.size()) arm_frame();

  for (; async_head_ < finished; ++async_head_) {
    Frame& frame = async_queue_[async_head_];
    account_busy(tx_time((frame.payload_size - async_progress_bytes_) * 8));
    async_progress_bytes_ = 0;
    // Last fragment lands at the end of this frame period.
    simulator().schedule_in(sim::Time::seconds(frame_period_s()),
                            [this, done = std::move(frame)] { deliver(done); });
  }
  if (partial > 0) {
    async_progress_bytes_ += partial;
    account_busy(tx_time(partial * 8));
  }
  // Drop the finished prefix: all of it once the queue drains, otherwise
  // when it is at least half the vector (amortised O(1) per frame).
  if (async_head_ == async_queue_.size()) {
    async_queue_.clear();
    async_head_ = 0;
  } else if (async_head_ >= 64 && 2 * async_head_ >= async_queue_.size()) {
    async_queue_.erase(async_queue_.begin(),
                       async_queue_.begin() + static_cast<std::ptrdiff_t>(async_head_));
    async_head_ = 0;
  }
}

}  // namespace ev::network
