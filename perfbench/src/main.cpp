// perfbench driver: runs one workload for a fixed time, checks that every
// output is right, and prints its metrics as one JSON line.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// --trace 0 prints the end-to-end metrics, measured untraced. --trace 1
// alternates untraced and traced repeats and prints the per-layer
// metrics, including the tuples_per_s cost of tracing. See README.md.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "harness.hpp"
#include "metrics/stats.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using posg::metrics::percentile;

double median(std::vector<double> values) { return percentile(std::move(values), 50.0); }

double mean(const std::vector<double>& values) {
  double sum = 0.0;
  for (const double v : values) {
    sum += v;
  }
  return values.empty() ? 0.0 : sum / static_cast<double>(values.size());
}

/// Percentile p of each of the n / `chunk` equal runs of consecutive
/// samples (of the whole sample when it is shorter than one chunk).
std::vector<double> chunk_percentiles(const std::vector<double>& samples, std::size_t chunk,
                                      double p) {
  const std::size_t n = samples.size();
  const std::size_t chunks = std::max<std::size_t>(1, n / chunk);
  std::vector<double> result(chunks);
  for (std::size_t c = 0; c < chunks; ++c) {
    const auto first = samples.begin() + static_cast<std::ptrdiff_t>(c * n / chunks);
    const auto last = samples.begin() + static_cast<std::ptrdiff_t>((c + 1) * n / chunks);
    result[c] = percentile(std::vector<double>(first, last), p);
  }
  return result;
}

/// Call-duration percentile: the mean over 16 chunks of each chunk's
/// percentile, which keeps a stall from moving it and gives it
/// sub-nanosecond resolution, so two runs rarely print the same value.
double span_percentile(const std::vector<double>& samples, double p) {
  return mean(chunk_percentiles(samples, std::max<std::size_t>(1000, samples.size() / 16), p));
}

/// What the driver keeps of one repeat once its buffers are dropped.
struct Summary {
  double setup_s = 0.0;
  double tuples = 0.0;
  double run_s = 0.0;
  double cpu_s = 0.0;
  std::vector<double> latency_ms;  // untraced repeats only
  double sys_frac = 0.0;
  double ctx_per_ktuple = 0.0;
  double shipments_per_ktuple = 0.0;
  double replies_per_ktuple = 0.0;
  double epochs = 0.0;
  Replay quality;
  std::map<std::string, double> layers;  // traced repeats only
};

struct Gate {
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;

  void check(bool ok, const std::string& what) {
    if (!ok) {
      failures.push_back(what);
    }
  }
};

Summary summarize(const Inputs& in, Repeat& r, bool traced, Gate& gate) {
  const auto n = static_cast<double>(r.offered);
  gate.attempted += r.offered;
  // Tuples not executed, rerouted, or routed to a quarantined instance.
  std::uint64_t failed = r.offered - std::min(r.offered, r.executed) + r.reroutes;
  for (const auto op : r.quarantined) {
    failed += op < r.routed.size() ? r.routed[op] : 0;
  }
  gate.failed += failed;
  gate.check(r.error.empty(), r.error);
  gate.check(r.executed == r.offered, "executed " + std::to_string(r.executed) + " of " +
                                          std::to_string(r.offered) + " offered tuples");
  gate.check(r.executed_at == r.routed, "per-instance executed counts differ from routed counts");
  gate.check(std::all_of(r.loads.begin(), r.loads.end(), [](double c) { return c >= 0.0; }),
             "an estimated load is negative");
  gate.check(r.quarantined.empty(), std::to_string(r.quarantined.size()) +
                                        " instances quarantined in a fault-free run");
  gate.check(r.reroutes == 0, std::to_string(r.reroutes) + " tuples rerouted");
  if (in.workload == Workload::kSimTweets && r.quality) {
    // The replay that scores the other workloads must agree with the
    // simulator on the simulator's own decisions.
    const Replay replay = replay_virtual_time(r.decisions, in.cost, in.instances,
                                              in.inter_arrival);
    gate.check(std::abs(replay.L_mean - r.quality->L_mean) <= 1e-9 * r.quality->L_mean,
               "virtual-time replay disagrees with Simulator on L_mean");
  }

  Summary s;
  s.setup_s = r.setup_s;
  s.tuples = n;
  s.run_s = r.run_s;
  s.cpu_s = r.proc_end.cpu_s - r.proc_begin.cpu_s;
  if (!traced) {
    s.latency_ms = std::move(r.latency_ms);
  }
  const double user = r.proc_end.user_s - r.proc_begin.user_s;
  const double sys = r.proc_end.sys_s - r.proc_begin.sys_s;
  s.sys_frac = user + sys > 0.0 ? sys / (user + sys) : 0.0;
  s.ctx_per_ktuple =
      static_cast<double>(r.proc_end.ctx_switches - r.proc_begin.ctx_switches) * 1e3 / n;
  s.shipments_per_ktuple = static_cast<double>(r.shipments) * 1e3 / n;
  s.replies_per_ktuple = static_cast<double>(r.sync_replies) * 1e3 / n;
  s.epochs = static_cast<double>(r.epochs);
  if (r.quality) {
    s.quality = *r.quality;
  }
  if (traced) {
    for (const auto& [name, span] : r.spans) {
      if (span.empty()) {
        continue;
      }
      s.layers[name + "_p50"] = span_percentile(span, 50.0);
      s.layers[name + "_mean"] = mean(span);
      if (span.size() >= 16'000) {
        s.layers[name + "_p99"] = span_percentile(span, 99.0);
      }
      s.layers[name + "_calls"] = static_cast<double>(span.size());
    }
    for (const auto& [name, value] : r.values) {
      s.layers[name] = value;
    }
    if (!r.estimate_err.empty()) {
      s.layers["core.estimate_err_abs_mean"] = mean(r.estimate_err);
      s.layers["core.estimate_err_abs_p99"] = percentile(r.estimate_err, 99.0);
    }
  }
  return s;
}

template <typename Field>
double median_of(const std::vector<Summary>& runs, Field field) {
  std::vector<double> values;
  for (const Summary& s : runs) {
    values.push_back(field(s));
  }
  return median(values);
}

// Throughput and CPU are totals over a run's repeats, and latency
// percentiles are taken over all of its samples pooled. The shared host
// switches between fast and slow regimes that last tens of seconds; a
// median over repeats snaps to whichever regime held most of the run,
// while totals and pooled samples move with the share of each.

double tuples_per_s(const std::vector<Summary>& runs) {
  double tuples = 0.0;
  double seconds = 0.0;
  for (const Summary& s : runs) {
    tuples += s.tuples;
    seconds += s.run_s;
  }
  return tuples / seconds;
}

double cpu_us_per_tuple(const std::vector<Summary>& runs) {
  double tuples = 0.0;
  double cpu_s = 0.0;
  for (const Summary& s : runs) {
    tuples += s.tuples;
    cpu_s += s.cpu_s;
  }
  return cpu_s * 1e6 / tuples;
}

/// Percentile p of every latency sample of the run; 0 when there are none,
/// which happens only after a gate failed.
double pooled_latency_ms(const std::vector<Summary>& runs, double p) {
  std::vector<double> pooled;
  for (const Summary& s : runs) {
    pooled.insert(pooled.end(), s.latency_ms.begin(), s.latency_ms.end());
  }
  return pooled.empty() ? 0.0 : percentile(std::move(pooled), p);
}

/// Mean over traced repeats of one layer figure (0 when absent).
double layer(const std::vector<Summary>& traced, const std::string& name) {
  std::vector<double> values;
  for (const Summary& s : traced) {
    const auto it = s.layers.find(name);
    if (it != s.layers.end()) {
      values.push_back(it->second);
    }
  }
  return values.empty() ? 0.0 : mean(values);
}

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_metrics(const std::vector<Metric>& metrics, const Gate& gate) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              gate.failures.empty() ? "true" : "false",
              static_cast<unsigned long long>(gate.attempted),
              static_cast<unsigned long long>(gate.failed));
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                metrics[i].name.c_str(), metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload route-tweets|sim-tweets|socket-burst|socket-paced "
               "--seed N --seconds S --trace 0|1\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (PERFBENCH_DCHECKS || std::string(PERFBENCH_BUILD_TYPE) != "Release") {
    std::fprintf(stderr,
                 "perfbench: refusing to measure a %s build with POSG_DCHECKS=%s; configure "
                 "with -DCMAKE_BUILD_TYPE=Release -DPOSG_DCHECKS=OFF\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_DCHECKS ? "ON" : "OFF");
    return 2;
  }
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) {
    args[argv[i]] = argv[i + 1];
  }
  if (args.size() != 4 || !args.count("--workload") || !args.count("--seed") ||
      !args.count("--seconds") || !args.count("--trace")) {
    return usage();
  }
  const auto workload = parse_workload(args["--workload"]);
  const std::uint64_t seed = std::strtoull(args["--seed"].c_str(), nullptr, 10);
  const double seconds = std::strtod(args["--seconds"].c_str(), nullptr);
  const bool trace = args["--trace"] == "1";
  if (!workload || !(seconds > 0.0) || (!trace && args["--trace"] != "0")) {
    return usage();
  }
  const bool deterministic =
      *workload == Workload::kRouteTweets || *workload == Workload::kSimTweets;

  const std::vector<Inputs> segments = make_inputs(*workload, seed);
  const double ref_begin = host_ref_loop_ns();

  // Repeat until the time is spent: at least three untraced repeats for
  // the medians, and with --trace 1 untraced and traced repeats alternate.
  Gate gate;
  std::vector<Summary> plain;
  std::vector<Summary> traced;
  // route-tweets' and sim-tweets' decisions depend on their inputs alone:
  // every repeat of a segment must reproduce that segment's first repeat.
  std::vector<std::optional<Replay>> reference(segments.size());
  const TimePoint begin = Clock::now();
  const std::size_t min_plain = trace ? 2 : 3;
  while (plain.size() < min_plain || (trace && traced.size() < 2) ||
         seconds_between(begin, Clock::now()) < seconds) {
    const bool traced_repeat = trace && plain.size() > traced.size();
    const std::size_t segment = (plain.size() + traced.size()) % segments.size();
    const Inputs& inputs = segments[segment];
    Repeat repeat;
    try {
      repeat = run_repeat(inputs, traced_repeat);
    } catch (const std::exception& e) {
      // E.g. NoLiveInstanceError: the program failed, no metric is valid.
      std::fprintf(stderr, "perfbench: FAILED: repeat threw: %s\n", e.what());
      return 1;
    }
    Summary summary = summarize(inputs, repeat, traced_repeat, gate);
    if (deterministic) {
      std::optional<Replay>& first = reference[segment];
      if (!first) {
        first = summary.quality;
      }
      gate.check(summary.quality.digest == first->digest &&
                     summary.quality.L_mean == first->L_mean &&
                     summary.quality.makespan_ratio == first->makespan_ratio,
                 "decision stream, L_mean or makespan_ratio changed between repeats of one seed");
    }
    (traced_repeat ? traced : plain).push_back(std::move(summary));
  }
  // Before the pooled latency copies below add to the process's peak.
  const double rss_mb = peak_rss_mb();
  const double ref_end = host_ref_loop_ns();

  for (const std::string& failure : gate.failures) {
    std::fprintf(stderr, "perfbench: FAILED: %s\n", failure.c_str());
  }
  // latency_p99_ms is printed but not among the bounded metrics: on a
  // shared VM a busy neighbour delays thread wake-ups by up to
  // milliseconds for tens of seconds at a time, which moved socket-paced's
  // p99 8x between runs of the same code (see README.md).
  std::printf("# %s seed=%llu repeats=%zu+%zu traced, latency samples/repeat=%zu, "
              "latency_p99_ms=%.6g, host.ref_loop_ns start=%.4f end=%.4f\n",
              workload_name(*workload), static_cast<unsigned long long>(seed), plain.size(),
              traced.size(), plain.front().latency_ms.size(), pooled_latency_ms(plain, 99.0),
              ref_begin, ref_end);

  std::vector<Metric> metrics;
  if (!trace) {
    metrics = {
        {"setup_s", median_of(plain, [](const Summary& s) { return s.setup_s; }), "s"},
        {"tuples_per_s", tuples_per_s(plain), "1/s"},
        {"cpu_us_per_tuple", cpu_us_per_tuple(plain), "us"},
        {"latency_p50_ms", pooled_latency_ms(plain, 50.0), "ms"},
        {"L_mean", median_of(plain, [](const Summary& s) { return s.quality.L_mean; }), "cost"},
        {"L_p99", median_of(plain, [](const Summary& s) { return s.quality.L_p99; }), "cost"},
        {"makespan_ratio",
         median_of(plain, [](const Summary& s) { return s.quality.makespan_ratio; }), "ratio"},
        {"peak_rss_mb", rss_mb, "MB"},
    };
  } else {
    // Workload-specific spans and counters, by the layer that owns them.
    std::map<std::string, double> detail;
    for (const Summary& s : traced) {
      for (const auto& entry : s.layers) {
        detail[entry.first] = layer(traced, entry.first);
      }
    }
    std::printf("# layers %s:", workload_name(*workload));
    for (const auto& [name, value] : detail) {
      std::printf(" %s=%.6g", name.c_str(), value);
    }
    std::printf("\n");

    const bool socket =
        *workload == Workload::kSocketBurst || *workload == Workload::kSocketPaced;
    const std::string route_span = socket ? "runtime.route_ns" : "core.schedule_ns";
    const double plain_tput = tuples_per_s(plain);
    const double traced_tput = tuples_per_s(traced);
    metrics = {
        {"router.call_ns_p50", layer(traced, route_span + "_p50"), "ns"},
        {"router.call_ns_p99", layer(traced, route_span + "_p99"), "ns"},
        {"router.call_ns_mean", layer(traced, route_span + "_mean"), "ns"},
        {"core.shipments_per_ktuple",
         median_of(traced, [](const Summary& s) { return s.shipments_per_ktuple; }),
         "1/ktuple"},
        {"core.sync_replies_per_ktuple",
         median_of(traced, [](const Summary& s) { return s.replies_per_ktuple; }), "1/ktuple"},
        {"core.epochs", median_of(traced, [](const Summary& s) { return s.epochs; }), "count"},
        {"core.estimate_err_abs_mean", layer(traced, "core.estimate_err_abs_mean"), "cost"},
        {"core.estimate_err_abs_p99", layer(traced, "core.estimate_err_abs_p99"), "cost"},
        {"proc.sys_frac", median_of(plain, [](const Summary& s) { return s.sys_frac; }),
         "ratio"},
        {"proc.ctx_switches_per_ktuple",
         median_of(plain, [](const Summary& s) { return s.ctx_per_ktuple; }), "1/ktuple"},
        {"trace_overhead_frac", 1.0 - traced_tput / plain_tput, "ratio"},
        {"host.ref_loop_ns", 0.5 * (ref_begin + ref_end), "ns"},
    };
  }
  print_metrics(metrics, gate);
  return gate.failures.empty() ? 0 : 1;
}
