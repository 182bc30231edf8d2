#pragma once

// Measurement helpers the perfbench workloads share: clocks and process
// counters, the host-speed canary, the virtual-time replay that turns a
// decision stream into the paper's completion time L, FIFO pairing of
// instance-side execution stamps to routed tuples, and the open-loop
// generator. Nothing here calls into posg; the workloads do that.

#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "common/types.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;
using TimePoint = Clock::time_point;

inline double seconds_between(TimePoint from, TimePoint to) {
  return std::chrono::duration<double>(to - from).count();
}

inline double ns_between(TimePoint from, TimePoint to) {
  return std::chrono::duration<double, std::nano>(to - from).count();
}

/// Process-wide counters, summed over every thread of this process.
struct ProcSample {
  double cpu_s = 0.0;   ///< CLOCK_PROCESS_CPUTIME_ID (exact)
  double user_s = 0.0;  ///< getrusage; the user/sys split is tick-sampled
  double sys_s = 0.0;
  std::uint64_t ctx_switches = 0;  ///< voluntary + involuntary

  static ProcSample now();
};

/// Peak resident set size of this process so far, in MB.
double peak_rss_mb();

/// Host-speed canary: nanoseconds per iteration of a fixed integer loop
/// that touches no posg code and no memory. Timed at the start and at the
/// end of every run, it separates host drift from a change in the program.
double host_ref_loop_ns();

/// The paper's quality figures for one decision stream.
struct Replay {
  double L_mean = 0.0;          ///< mean completion time, cost units
  double L_p99 = 0.0;           ///< 99th percentile completion time
  double makespan_ratio = 0.0;  ///< max instance work / mean instance work
  std::uint64_t digest = 0;     ///< FNV-1a over the instance sequence
};

/// Replays `decisions` (instance per tuple) on a virtual clock: tuple i
/// arrives at i * inter_arrival and waits at its FIFO instance behind the
/// work routed there before it, then runs for cost[i].
Replay replay_virtual_time(const std::vector<std::uint8_t>& decisions,
                           const std::vector<double>& cost, std::size_t instances,
                           double inter_arrival);

/// Max instance work / mean instance work (the quantity Thm 4.2 bounds).
double makespan_ratio(const std::vector<double>& work);

/// FNV-1a over an instance sequence.
std::uint64_t decision_digest(const std::vector<std::uint8_t>& decisions);

/// Pairs every routed tuple with the time it was executed. Links are FIFO
/// and the workloads inject no faults, so the n-th stamp at an instance
/// belongs to the n-th tuple routed there. Throws std::runtime_error when
/// an instance holds a different number of stamps than tuples routed to it.
std::vector<TimePoint> pair_fifo(const std::vector<std::uint8_t>& decisions,
                                 const std::vector<std::vector<TimePoint>>& stamps);

/// A fixed-rate schedule: call i is due at start + i / rate.
struct OpenLoop {
  TimePoint start;
  double rate = 1.0;  ///< calls per second

  TimePoint due(std::size_t i) const {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(static_cast<double>(i) / rate));
  }

  /// Issues calls 0..n-1 through `send(i)`. Calls already due go back to
  /// back; otherwise the generator sleeps (never spins) until the next one
  /// is due. A slow send() delays later calls but not their due times.
  /// `lag_s[i]` receives how late call i was issued.
  template <typename Send>
  void run(std::size_t n, Send&& send, std::vector<double>& lag_s) const {
    lag_s.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      const TimePoint when = due(i);
      TimePoint now = Clock::now();
      if (now < when) {
        std::this_thread::sleep_until(when);
        now = Clock::now();
      }
      lag_s[i] = seconds_between(when, now);
      send(i);
    }
  }
};

/// Completion latency in ms of every tuple, timed from when it was due
/// (not from when it was sent), so a stall in the generator counts
/// against every tuple it delayed.
std::vector<double> latency_from_due_ms(const OpenLoop& schedule,
                                        const std::vector<TimePoint>& executed);

}  // namespace perfbench
