// Unit tests for the campaign module: the worker pool (handoff, block
// handout, parking, exceptions), the seed ladder, and the determinism contract — a campaign report must be byte-identical
// for any worker count.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "ev/campaign/campaign.h"
#include "ev/campaign/parallel.h"
#include "ev/config/scenario.h"

namespace {

using ev::campaign::CampaignOptions;
using ev::campaign::CampaignResult;
using ev::campaign::SeedPlan;

// ------------------------------------------------------------- parallel ----

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  for (const int jobs : {1, 2, 3, 8}) {
    std::vector<std::atomic<int>> hits(37);
    ev::campaign::parallel_for(37, jobs, [&](int i) { ++hits[static_cast<std::size_t>(i)]; });
    for (const std::atomic<int>& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST(ParallelFor, HandlesDegenerateShapes) {
  std::atomic<int> calls{0};
  ev::campaign::parallel_for(0, 4, [&](int) { ++calls; });
  EXPECT_EQ(calls.load(), 0);
  ev::campaign::parallel_for(3, 16, [&](int) { ++calls; });  // jobs > count
  EXPECT_EQ(calls.load(), 3);
  ev::campaign::parallel_for(5, 0, [&](int) { ++calls; });  // 0 = hardware
  EXPECT_EQ(calls.load(), 8);
}

TEST(ParallelFor, PropagatesTheFirstException) {
  std::atomic<int> completed{0};
  EXPECT_THROW(
      ev::campaign::parallel_for(16, 4,
                                 [&](int i) {
                                   if (i == 5) throw std::runtime_error("boom");
                                   ++completed;
                                 }),
      std::runtime_error);
  EXPECT_EQ(completed.load(), 15);  // the pool drains before rethrowing
}

TEST(ResolveJobs, ClampsToTaskCount) {
  EXPECT_EQ(ev::campaign::resolve_jobs(4, 2), 2);
  EXPECT_EQ(ev::campaign::resolve_jobs(1, 100), 1);
  EXPECT_GE(ev::campaign::resolve_jobs(0, 100), 1);  // hardware concurrency
  EXPECT_EQ(ev::campaign::resolve_jobs(-3, 100), ev::campaign::resolve_jobs(0, 100));
}

// ---------------------------------------------------------- worker pool ----

// Runs one round and checks that every index in [0, count) ran exactly once
// and nothing outside it ran. Plain ints on purpose: a doubly handed-out
// index or a round that returns before its tasks finish is a data race the
// TSan build reports.
void expect_round_covers(ev::campaign::WorkerPool& pool, int count, std::vector<int>& hits,
                         int round) {
  std::fill(hits.begin(), hits.end(), 0);
  pool.run(count, [&hits](int i) { hits[static_cast<std::size_t>(i)] += 1; });
  for (int i = 0; i < static_cast<int>(hits.size()); ++i)
    ASSERT_EQ(hits[static_cast<std::size_t>(i)], i < count ? 1 : 0)
        << "jobs " << pool.jobs() << ", round " << round << ", count " << count
        << ", index " << i;
}

TEST(WorkerPool, RunsEveryIndexAcrossRounds) {
  ev::campaign::WorkerPool pool(4);
  for (int round = 0; round < 50; ++round) {
    std::vector<int> hits(64, 0);
    pool.run(64, [&](int i) { hits[static_cast<std::size_t>(i)] += 1; });
    for (int i = 0; i < 64; ++i)
      ASSERT_EQ(hits[static_cast<std::size_t>(i)], 1) << "round " << round;
  }
}

TEST(WorkerPool, SingleJobRunsInline) {
  ev::campaign::WorkerPool pool(1);
  EXPECT_EQ(pool.jobs(), 1);
  std::vector<int> order;
  pool.run(8, [&](int i) { order.push_back(i); });
  for (int i = 0; i < 8; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(WorkerPool, RethrowsTaskException) {
  ev::campaign::WorkerPool pool(3);
  EXPECT_THROW(
      pool.run(16,
               [&](int i) {
                 if (i == 7) throw std::runtime_error("boom");
               }),
      std::runtime_error);
  // The pool must still be usable after an exception round.
  std::atomic<int> done{0};
  pool.run(16, [&](int) { done.fetch_add(1); });
  EXPECT_EQ(done.load(), 16);
}

TEST(WorkerPool, StressRoundsRunEveryIndexOnce) {
  // Counts cycle through 1..2*jobs, so rounds below, at and above the fan
  // size alternate with the inline count == 1 path, back to back.
  constexpr int kRounds = 100000;
  for (const int jobs : {2, 3, 8}) {
    ev::campaign::WorkerPool pool(jobs);
    std::vector<int> hits(static_cast<std::size_t>(2 * jobs), 0);
    for (int round = 0; round < kRounds; ++round) {
      expect_round_covers(pool, 1 + round % (2 * jobs), hits, round);
      if (HasFatalFailure()) return;
    }
  }
}

TEST(WorkerPool, FewerIndexesThanJobs) {
  ev::campaign::WorkerPool pool(8);
  std::vector<int> hits(8, 0);
  for (int round = 0; round < 200; ++round) {
    expect_round_covers(pool, 2 + round % 6, hits, round);  // 2..7 < 8 jobs
    if (HasFatalFailure()) return;
  }
  // A single index runs inline on the caller even on a wide pool.
  std::thread::id ran_on;
  pool.run(1, [&ran_on](int) { ran_on = std::this_thread::get_id(); });
  EXPECT_EQ(ran_on, std::this_thread::get_id());
}

TEST(WorkerPool, CompletesWhenOversubscribed) {
  // Four threads per hardware thread (capped so a many-core box does not
  // start hundreds): waiters must yield their core to the threads they wait
  // on. Only completion and coverage are asserted, never timing.
  const int hw = std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  ev::campaign::WorkerPool pool(std::min(4 * hw, 256));
  std::vector<int> hits(static_cast<std::size_t>(2 * pool.jobs()), 0);
  for (int round = 0; round < 2000; ++round) {
    expect_round_covers(pool, 1 + round % (2 * pool.jobs()), hits, round);
    if (HasFatalFailure()) return;
  }
}

TEST(WorkerPool, WakesParkedThreads) {
  // Far past the pause and yield budgets, so the workers are parked on the
  // futex when a round starts and when the pool is destroyed.
  constexpr auto kPastSpinBudget = std::chrono::milliseconds(50);
  std::vector<int> hits(64, 0);
  {
    ev::campaign::WorkerPool pool(4);
    for (int round = 0; round < 3; ++round) {
      std::this_thread::sleep_for(kPastSpinBudget);
      expect_round_covers(pool, 64, hits, round);
      if (HasFatalFailure()) return;
    }
    // The caller parks too when one task outlasts its budget.
    std::atomic<int> done{0};
    pool.run(8, [&done, kPastSpinBudget](int i) {
      if (i == 7) std::this_thread::sleep_for(kPastSpinBudget);
      done.fetch_add(1);
    });
    EXPECT_EQ(done.load(), 8);
    std::this_thread::sleep_for(kPastSpinBudget);
  }  // the destructor must wake the parked workers, or this test hangs
}

TEST(WorkerPool, ExceptionLeavesTheRestOfTheRoundRunning) {
  // Whichever block the throwing index lands in, every other index of the
  // round still runs before the first exception reaches the caller.
  constexpr int kCount = 37;
  for (const int jobs : {2, 3, 4, 8}) {
    ev::campaign::WorkerPool pool(jobs);
    for (const int bad : {0, 1, kCount / 2, kCount - 1}) {
      std::atomic<int> completed{0};
      EXPECT_THROW(pool.run(kCount,
                            [&completed, bad](int i) {
                              if (i == bad) throw std::runtime_error("boom");
                              completed.fetch_add(1);
                            }),
                   std::runtime_error);
      EXPECT_EQ(completed.load(), kCount - 1) << "jobs " << jobs << ", bad " << bad;
    }
    // Two throwers: one exception surfaces, everything else still ran.
    std::atomic<int> completed{0};
    EXPECT_THROW(pool.run(kCount,
                          [&completed](int i) {
                            if (i == 3 || i == kCount - 2) throw std::runtime_error("boom");
                            completed.fetch_add(1);
                          }),
                 std::runtime_error);
    EXPECT_EQ(completed.load(), kCount - 2) << "jobs " << jobs;
  }
}

// ------------------------------------------------------------ seed plan ----

TEST(SeedPlan, LadderArithmetic) {
  const SeedPlan plan{/*first=*/10, /*stride=*/3, /*count=*/4};
  EXPECT_EQ(plan.seed(0), 10u);
  EXPECT_EQ(plan.seed(3), 19u);
}

// ------------------------------------------------------------- campaign ----

ev::config::ScenarioSpec test_scenario() {
  ev::config::ScenarioSpec spec;
  spec.name = "campaign-test";
  spec.drive.cycle = ev::config::CycleKind::kUrban;
  spec.subsystems.obs = true;
  spec.subsystems.faults = true;
  spec.subsystems.health = true;
  return spec;
}

TEST(Campaign, ReportIsByteIdenticalAcrossWorkerCounts) {
  // The tentpole contract: per-seed runs are pure functions of (spec, seed)
  // and the fold happens in seed-index order on one thread, so the rendered
  // report can never depend on --jobs.
  const ev::config::ScenarioSpec spec = test_scenario();
  const auto render = [&](int jobs) {
    const CampaignOptions options{{/*first=*/1, /*stride=*/1, /*count=*/4}, jobs};
    return ev::campaign::campaign_json(ev::campaign::run_scenario_campaign(spec, options));
  };
  const std::string serial = render(1);
  EXPECT_EQ(serial, render(3));
  EXPECT_NE(serial.find("\"runs\":["), std::string::npos);
  EXPECT_NE(serial.find("\"cross_seed\":"), std::string::npos);
  EXPECT_NE(serial.find("\"metrics\":"), std::string::npos);
  EXPECT_EQ(serial.find("\"jobs\":"), std::string::npos);  // worker count never leaks
}

TEST(Campaign, RunsCarrySeedsInLadderOrder) {
  const CampaignOptions options{{/*first=*/5, /*stride=*/2, /*count=*/3}, 2};
  const CampaignResult result =
      ev::campaign::run_scenario_campaign(test_scenario(), options);
  ASSERT_EQ(result.runs.size(), 3u);
  EXPECT_EQ(result.runs[0].seed, 5u);
  EXPECT_EQ(result.runs[1].seed, 7u);
  EXPECT_EQ(result.runs[2].seed, 9u);
  for (const ev::campaign::SeedRun& run : result.runs) {
    EXPECT_GT(run.distance_km, 0.0);
    EXPECT_GT(run.battery_energy_out_wh, 0.0);
  }
  // Different seeds perturb the powertrain, so the digests must differ.
  EXPECT_NE(result.runs[0].digest, result.runs[1].digest);
}

}  // namespace
