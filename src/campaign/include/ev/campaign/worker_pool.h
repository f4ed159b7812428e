/// \file worker_pool.h
/// The one fixed-size thread fan of the code base. A WorkerPool keeps its
/// threads waiting between rounds, so a tick loop can fan out thousands of
/// times; parallel_for (parallel.h) builds one per call for a campaign's
/// single big fan. A round is published by bumping one generation word and
/// closed when every worker has checked in on a second word; both sides wait
/// spin -> yield -> park, so back-to-back rounds cost microseconds while an
/// idle pool sleeps on a futex. Indexes go out in contiguous blocks, the
/// calling thread participates, jobs=1 never spawns a thread, and the first
/// task exception is rethrown on the caller after the round drains — so
/// per-index slot arrays plus a serial index-order fold stay the determinism
/// pattern.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <limits>
#include <thread>
#include <vector>

namespace ev::campaign {

/// Resolves a user-facing --jobs value: <= 0 means one job per hardware
/// thread, and the result is clamped to [1, count] so a small fan never
/// spawns idle workers.
[[nodiscard]] inline int resolve_jobs(int jobs, int count) noexcept {
  if (jobs <= 0) jobs = static_cast<int>(std::thread::hardware_concurrency());
  if (jobs <= 0) jobs = 1;
  return std::clamp(jobs, 1, std::max(count, 1));
}

class WorkerPool {
 public:
  /// Creates a pool that runs rounds on up to \p jobs threads including the
  /// caller (resolve_jobs semantics against an unbounded fan; <= 0 means one
  /// per hardware thread). jobs=1 runs every round inline.
  explicit WorkerPool(int jobs)
      : jobs_(resolve_jobs(jobs, std::numeric_limits<int>::max())),
        workers_(static_cast<std::uint32_t>(jobs_ - 1)),
        claims_(static_cast<std::size_t>(jobs_) * kBlocksPerJob) {
    threads_.reserve(static_cast<std::size_t>(jobs_ - 1));
    try {
      for (int participant = 1; participant < jobs_; ++participant)
        threads_.emplace_back([this, participant] { worker_loop(participant); });
    } catch (...) {
      stop_and_join();  // a failed spawn must not leave started threads unjoined
      throw;
    }
  }

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  ~WorkerPool() { stop_and_join(); }

  /// Number of threads a round may use, caller included.
  [[nodiscard]] int jobs() const noexcept { return jobs_; }

  /// Runs fn(i) once for every i in [0, count); returns only after every
  /// worker has left the round (full barrier), so per-index slots are safe
  /// to fold immediately. Single caller, not reentrant.
  void run(int count, const std::function<void(int)>& fn) {
    if (count <= 0) return;
    if (jobs_ == 1 || count == 1) {
      for (int i = 0; i < count; ++i) fn(i);  // exceptions propagate directly
      return;
    }
    // Every worker checked in to the previous round, so none reads these
    // until the generation bump below publishes them.
    fn_ = &fn;
    count_ = count;
    const int target_blocks = jobs_ * kBlocksPerJob;
    block_ = (count + target_blocks - 1) / target_blocks;
    blocks_ = (count + block_ - 1) / block_;
    for (int b = 0; b < blocks_; ++b)
      claims_[static_cast<std::size_t>(b)].taken.store(0, std::memory_order_relaxed);
    finished_.store(0, std::memory_order_relaxed);
    publish(generation_);

    drain(0);
    for (std::uint32_t seen = finished_.load(std::memory_order_acquire); seen != workers_;)
      seen = await_change(finished_, seen);

    fn_ = nullptr;
    if (failed_.load(std::memory_order_relaxed) != 0) {
      std::exception_ptr error = error_;
      error_ = nullptr;
      failed_.store(0, std::memory_order_relaxed);
      std::rethrow_exception(error);
    }
  }

 private:
  /// Blocks per participant: each owns a home run of this many consecutive
  /// blocks (together about count/jobs indexes), and the finer grain lets
  /// the others take over the tail of a late or slow participant.
  static constexpr int kBlocksPerJob = 4;
  /// `pause` iterations (a few us) before a waiter starts yielding: catches
  /// back-to-back rounds without a system call.
  static constexpr int kSpinPauses = 128;
  /// sched_yield calls before a waiter parks on the futex: about 0.1 ms on an
  /// idle core, enough to stay awake across a tick loop's serial gap, while
  /// an oversubscribed core hands its slot to the thread being waited on
  /// instead of burning it.
  static constexpr int kYields = 256;

  /// One claim flag per block, each on its own cache line.
  struct alignas(64) Claim {
    std::atomic<std::uint32_t> taken{0};
  };

  static void cpu_pause() noexcept {
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#elif defined(__aarch64__)
    asm volatile("yield");
#endif
  }

  /// Bumps \p word and wakes whoever parked on it. seq_cst (a superset of
  /// the release the payload needs) keeps notify's check for parked waiters
  /// from being ordered before the bump, so no wakeup is lost.
  static void publish(std::atomic<std::uint32_t>& word) noexcept {
    word.fetch_add(1, std::memory_order_seq_cst);
    word.notify_all();
  }

  /// Waits until \p word no longer holds \p old and returns the new value:
  /// spin on `pause`, then yield, then park on std::atomic::wait (a plain
  /// futex for a 32-bit word).
  static std::uint32_t await_change(const std::atomic<std::uint32_t>& word,
                                    std::uint32_t old) noexcept {
    std::uint32_t now = word.load(std::memory_order_acquire);
    for (int i = 0; now == old && i < kSpinPauses; ++i) {
      cpu_pause();
      now = word.load(std::memory_order_acquire);
    }
    for (int i = 0; now == old && i < kYields; ++i) {
      std::this_thread::yield();
      now = word.load(std::memory_order_acquire);
    }
    while (now == old) {
      word.wait(old, std::memory_order_acquire);
      now = word.load(std::memory_order_acquire);
    }
    return now;
  }

  void stop_and_join() noexcept {
    stopping_.store(true, std::memory_order_relaxed);
    publish(generation_);
    for (std::thread& worker : threads_) worker.join();
  }

  /// Claims blocks starting at the participant's home run, then any block
  /// nobody has taken yet, and runs every index of each claimed block.
  void drain(int participant) {
    const int blocks = blocks_;
    const int home = participant * blocks / jobs_;
    for (int k = 0; k < blocks; ++k) {
      const int b = (home + k) % blocks;
      std::atomic<std::uint32_t>& taken = claims_[static_cast<std::size_t>(b)].taken;
      if (taken.load(std::memory_order_relaxed) != 0 ||
          taken.exchange(1, std::memory_order_relaxed) != 0)
        continue;
      const int begin = b * block_;
      const int end = begin + std::min(block_, count_ - begin);
      for (int i = begin; i < end; ++i) {
        try {
          (*fn_)(i);
        } catch (...) {
          if (failed_.exchange(1, std::memory_order_relaxed) == 0)
            error_ = std::current_exception();
        }
      }
    }
  }

  void worker_loop(int participant) {
    std::uint32_t seen = 0;
    for (;;) {
      seen = await_change(generation_, seen);
      if (stopping_.load(std::memory_order_relaxed)) return;
      drain(participant);
      // Check in exactly once per generation; the caller cannot start the
      // next one (or return, leaving fn_ dangling) before every worker has.
      if (finished_.fetch_add(1, std::memory_order_seq_cst) + 1 == workers_)
        finished_.notify_one();
    }
  }

  int jobs_;
  std::uint32_t workers_;  ///< Spawned threads: jobs_ - 1.
  std::vector<Claim> claims_;
  // Round state: written by the caller between rounds only.
  const std::function<void(int)>* fn_ = nullptr;
  int count_ = 0;
  int block_ = 1;
  int blocks_ = 0;
  std::exception_ptr error_ = nullptr;
  std::atomic<std::uint32_t> failed_{0};
  std::atomic<bool> stopping_{false};
  alignas(64) std::atomic<std::uint32_t> generation_{0};
  alignas(64) std::atomic<std::uint32_t> finished_{0};
  std::vector<std::thread> threads_;  // last: the threads use every member above
};

}  // namespace ev::campaign
