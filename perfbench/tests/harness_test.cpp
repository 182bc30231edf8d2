// Tests of the perfbench driver itself: the FIFO pairing of executions to
// routed tuples, what setup_s covers, and how the open-loop generator
// times latency.
#include <gtest/gtest.h>

#include <stdexcept>
#include <thread>

#include "harness.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using std::chrono::milliseconds;

TEST(PairFifo, NthStampAtAnInstanceBelongsToNthTupleRoutedThere) {
  const TimePoint t0 = Clock::now();
  auto at = [t0](int ms) { return t0 + milliseconds(ms); };
  // Tuples 0..4 go to instances 1, 0, 1, 1, 0.
  const std::vector<std::uint8_t> decisions = {1, 0, 1, 1, 0};
  const std::vector<std::vector<TimePoint>> stamps = {{at(10), at(40)},
                                                      {at(5), at(20), at(30)}};
  const std::vector<TimePoint> executed = pair_fifo(decisions, stamps);
  EXPECT_EQ(executed, (std::vector<TimePoint>{at(5), at(10), at(20), at(30), at(40)}));
}

TEST(PairFifo, RejectsStampCountsThatDifferFromRoutedCounts) {
  const TimePoint t0 = Clock::now();
  const std::vector<std::uint8_t> decisions = {0, 1, 1};
  // Instance 1 executed one tuple fewer than it was routed.
  EXPECT_THROW(pair_fifo(decisions, {{t0}, {t0}}), std::runtime_error);
  // Instance 0 executed one more.
  EXPECT_THROW(pair_fifo(decisions, {{t0, t0}, {t0, t0}}), std::runtime_error);
  // A decision that names no instance.
  EXPECT_THROW(pair_fifo({2}, {{t0}, {t0}}), std::runtime_error);
}

TEST(PairFifo, SocketRepeatExecutesExactlyWhatItRouted) {
  const Inputs inputs = make_inputs(Workload::kSocketPaced, 7, 20'000).front();
  const Repeat repeat = run_repeat(inputs, /*traced=*/false);
  EXPECT_TRUE(repeat.error.empty()) << repeat.error;
  EXPECT_EQ(repeat.executed, repeat.offered);
  EXPECT_EQ(repeat.executed_at, repeat.routed);
  EXPECT_EQ(repeat.latency_ms.size(), repeat.offered);
  EXPECT_TRUE(repeat.quarantined.empty());
}

TEST(SetupTime, ExcludesDatasetGeneration) {
  // Generating a long stream takes far longer than building a scheduler
  // and its trackers; setup_s must cover only the latter.
  const TimePoint before = Clock::now();
  const Inputs inputs = make_inputs(Workload::kRouteTweets, 3, 1'000'000).front();
  const double generation_s = seconds_between(before, Clock::now());
  const Repeat repeat = run_repeat(inputs, /*traced=*/false);
  EXPECT_GT(repeat.setup_s, 0.0);
  EXPECT_LT(repeat.setup_s * 20.0, generation_s);
}

TEST(SetupTime, SocketSetupEndsBeforeTheFirstRoute) {
  const Inputs inputs = make_inputs(Workload::kSocketBurst, 3, 5'000).front();
  const Repeat repeat = run_repeat(inputs, /*traced=*/false);
  // Set-up (threads, socket pairs, start()) ends when routing starts.
  EXPECT_GT(repeat.setup_s, 0.0);
  EXPECT_LT(repeat.setup_s, 1.0);
  EXPECT_GT(repeat.run_s, 0.0);
}

TEST(OpenLoop, DueTimesFollowTheRate) {
  const OpenLoop schedule{Clock::now(), 1000.0};
  EXPECT_EQ(schedule.due(0), schedule.start);
  EXPECT_NEAR(seconds_between(schedule.start, schedule.due(250)), 0.25, 1e-9);
}

TEST(OpenLoop, LatencyIsTimedFromTheDueTimeNotTheSendTime) {
  // 10 calls at 1 kHz; call 2 stalls the generator for 30 ms, so calls
  // 3..9 are sent late. Each tuple "executes" the moment it is sent, so
  // send-to-execution latency would read ~0 for all of them.
  const OpenLoop schedule{Clock::now(), 1000.0};
  std::vector<TimePoint> sent(10);
  std::vector<double> lag_s;
  schedule.run(
      10,
      [&](std::size_t i) {
        sent[i] = Clock::now();
        if (i == 2) {
          std::this_thread::sleep_for(milliseconds(30));
        }
      },
      lag_s);
  const std::vector<double> latency = latency_from_due_ms(schedule, sent);
  ASSERT_EQ(latency.size(), 10U);
  // Call 3 was due at 3 ms and went out after the 30 ms stall.
  EXPECT_GT(latency[3], 25.0);
  EXPECT_GT(lag_s[3] * 1e3, 25.0);
  // The stall still delays later calls, each by less as the schedule
  // catches up, and the due times never move.
  for (std::size_t i = 3; i < 10; ++i) {
    EXPECT_GT(latency[i], 30.0 - static_cast<double>(i)) << i;
    EXPECT_NEAR(latency[i], lag_s[i] * 1e3, 1.0) << i;
  }
  // Before the stall the generator kept its schedule.
  EXPECT_LT(latency[1], 5.0);
}

TEST(Replay, CompletionTimeOnAVirtualClock) {
  // Two instances, arrivals every 1 unit: tuple 0 (cost 3) to op 0,
  // tuple 1 (cost 1) to op 1, tuple 2 (cost 2) to op 0 waits until 3.
  const Replay replay = replay_virtual_time({0, 1, 0}, {3.0, 1.0, 2.0}, 2, 1.0);
  // Completions: 3, (1+1)-1 = 1, (3+2)-2 = 3.
  EXPECT_DOUBLE_EQ(replay.L_mean, 7.0 / 3.0);
  // Work 5 vs 1: max / mean = 5 / 3.
  EXPECT_DOUBLE_EQ(replay.makespan_ratio, 5.0 / 3.0);
  EXPECT_EQ(replay.digest, decision_digest({0, 1, 0}));
  EXPECT_NE(replay.digest, decision_digest({0, 0, 1}));
}

}  // namespace
}  // namespace perfbench
