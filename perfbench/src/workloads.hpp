#pragma once

// The four perfbench workloads. Each repeat builds the program's objects
// from scratch (that is what setup_s times), pushes the whole stream
// through them, tears them down, and returns what the driver needs for
// the metrics and the correctness gates.

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/types.hpp"
#include "harness.hpp"

namespace perfbench {

enum class Workload { kRouteTweets, kSimTweets, kSocketBurst, kSocketPaced };

std::optional<Workload> parse_workload(std::string_view name);
const char* workload_name(Workload workload);

/// What one repeat routes, made from the seed before any clock starts.
struct Inputs {
  Workload workload = Workload::kRouteTweets;
  std::size_t instances = 0;  ///< k
  std::vector<posg::common::Item> stream;
  std::vector<double> cost;       ///< true execution cost of tuple i
  std::vector<double> item_cost;  ///< true execution cost by entity id
  /// Source spacing on the virtual clock that scores decisions:
  /// kOverProvisioning * W̄ / k, where W̄ is the stream's mean cost.
  double inter_arrival = 0.0;
  double paced_rate = 0.0;  ///< socket-paced offered load, tuples/s
};

/// Draws the tweet stream for `workload` from `seed` and cuts it into the
/// segments that successive repeats route (one segment for route-tweets
/// and sim-tweets). `stream_length` of 0 picks the workload's own length.
std::vector<Inputs> make_inputs(Workload workload, std::uint64_t seed,
                                std::size_t stream_length = 0);

/// One repeat of a workload.
struct Repeat {
  double setup_s = 0.0;  ///< repeat start to the first routed tuple
  double run_s = 0.0;    ///< first routed tuple to the last execution
  std::uint64_t offered = 0;
  std::uint64_t executed = 0;
  ProcSample proc_begin;  ///< taken at the repeat start...
  ProcSample proc_end;    ///< ...and when the measured work is done
  /// Completion latency samples, ms: per tuple on socket-*, per block of
  /// kBlock tuples (block time / kBlock) on the closed loops.
  std::vector<double> latency_ms;
  std::vector<std::uint8_t> decisions;  ///< instance per tuple, in order
  /// Quality figures; sim-tweets fills them from Simulator::Result, the
  /// driver replays the decisions for the other workloads.
  std::optional<Replay> quality;

  // Correctness-gate inputs.
  std::vector<std::uint64_t> routed;       ///< per instance, router side
  std::vector<std::uint64_t> executed_at;  ///< per instance, instance side
  std::vector<double> loads;               ///< Ĉ after the run
  std::vector<posg::common::InstanceId> quarantined;
  std::uint64_t reroutes = 0;
  std::string error;  ///< non-empty when a repeat-level check failed

  // Control traffic (Thm 3.3).
  std::uint64_t shipments = 0;
  std::uint64_t sync_replies = 0;
  std::uint64_t epochs = 0;

  // Traced repeats only: call durations (ns) by span name, per-workload
  // scalars, and sampled |estimate - true cost|.
  std::map<std::string, std::vector<double>> spans;
  std::map<std::string, double> values;
  std::vector<double> estimate_err;
};

/// Tuples per latency block on the closed loops (route-tweets, sim-tweets,
/// socket-burst). At 1024 a scheduling hiccup of the host moves one block
/// by little, while a repeat still yields hundreds of blocks.
inline constexpr std::size_t kBlock = 1024;

Repeat run_repeat(const Inputs& inputs, bool traced);

}  // namespace perfbench
