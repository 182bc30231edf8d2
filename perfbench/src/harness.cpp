#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <ctime>
#include <stdexcept>
#include <string>

#include "metrics/stats.hpp"

namespace perfbench {

namespace {

double timeval_s(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

ProcSample ProcSample::now() {
  ProcSample sample;
  timespec cpu{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &cpu);
  sample.cpu_s = static_cast<double>(cpu.tv_sec) + static_cast<double>(cpu.tv_nsec) * 1e-9;
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  sample.user_s = timeval_s(usage.ru_utime);
  sample.sys_s = timeval_s(usage.ru_stime);
  sample.ctx_switches = static_cast<std::uint64_t>(usage.ru_nvcsw + usage.ru_nivcsw);
  return sample;
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB
}

double host_ref_loop_ns() {
  constexpr std::uint64_t kIterations = std::uint64_t{1} << 21;
  constexpr std::uint64_t kCells = std::uint64_t{1} << 15;  // 128 KiB
  // Four independent xorshift64 chains, each incrementing pseudo-random
  // cells of a table about the size of the router's hot sketch state. Like
  // the router loop it has the instruction-level parallelism to keep
  // several execution ports and the L1/L2 cache busy, so a busy neighbour
  // on the same physical core slows both alike.
  std::vector<std::uint32_t> table(kCells, 0);
  volatile std::uint64_t seed = 0x9E3779B97F4A7C15ULL;
  std::uint64_t x[4] = {seed, seed * 3, seed * 5, seed * 7};
  const TimePoint start = Clock::now();
  for (std::uint64_t i = 0; i < kIterations; ++i) {
    for (std::uint64_t& v : x) {
      v ^= v << 13U;
      v ^= v >> 7U;
      v ^= v << 17U;
      ++table[v & (kCells - 1)];
    }
  }
  const TimePoint end = Clock::now();
  seed = x[0] + x[1] + x[2] + x[3] + table[x[0] & (kCells - 1)];
  return ns_between(start, end) / static_cast<double>(kIterations);
}

double makespan_ratio(const std::vector<double>& work) {
  double sum = 0.0;
  for (const double w : work) {
    sum += w;
  }
  return *std::max_element(work.begin(), work.end()) / (sum / static_cast<double>(work.size()));
}

std::uint64_t decision_digest(const std::vector<std::uint8_t>& decisions) {
  std::uint64_t hash = 0xcbf29ce484222325ULL;
  for (const std::uint8_t op : decisions) {
    hash ^= op;
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

Replay replay_virtual_time(const std::vector<std::uint8_t>& decisions,
                           const std::vector<double>& cost, std::size_t instances,
                           double inter_arrival) {
  if (decisions.size() != cost.size() || decisions.empty()) {
    throw std::runtime_error("replay: need one cost per decision");
  }
  std::vector<double> free_at(instances, 0.0);
  std::vector<double> work(instances, 0.0);
  std::vector<double> completion(decisions.size());
  double total = 0.0;
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const std::uint8_t op = decisions[i];
    if (op >= instances) {
      throw std::runtime_error("replay: decision names instance " + std::to_string(op));
    }
    const double arrival = static_cast<double>(i) * inter_arrival;
    free_at[op] = std::max(free_at[op], arrival) + cost[i];
    work[op] += cost[i];
    completion[i] = free_at[op] - arrival;
    total += completion[i];
  }
  Replay replay;
  replay.L_mean = total / static_cast<double>(decisions.size());
  replay.L_p99 = posg::metrics::percentile(std::move(completion), 99.0);
  replay.makespan_ratio = makespan_ratio(work);
  replay.digest = decision_digest(decisions);
  return replay;
}

std::vector<TimePoint> pair_fifo(const std::vector<std::uint8_t>& decisions,
                                 const std::vector<std::vector<TimePoint>>& stamps) {
  std::vector<std::size_t> routed(stamps.size(), 0);
  for (const std::uint8_t op : decisions) {
    if (op >= stamps.size()) {
      throw std::runtime_error("pair_fifo: decision names instance " + std::to_string(op));
    }
    ++routed[op];
  }
  for (std::size_t op = 0; op < stamps.size(); ++op) {
    if (routed[op] != stamps[op].size()) {
      throw std::runtime_error("pair_fifo: instance " + std::to_string(op) + " executed " +
                               std::to_string(stamps[op].size()) + " tuples but " +
                               std::to_string(routed[op]) + " were routed to it");
    }
  }
  std::vector<std::size_t> next(stamps.size(), 0);
  std::vector<TimePoint> executed(decisions.size());
  for (std::size_t i = 0; i < decisions.size(); ++i) {
    const std::uint8_t op = decisions[i];
    executed[i] = stamps[op][next[op]++];
  }
  return executed;
}

std::vector<double> latency_from_due_ms(const OpenLoop& schedule,
                                        const std::vector<TimePoint>& executed) {
  std::vector<double> latency(executed.size());
  for (std::size_t i = 0; i < executed.size(); ++i) {
    latency[i] = seconds_between(schedule.due(i), executed[i]) * 1e3;
  }
  return latency;
}

}  // namespace perfbench
