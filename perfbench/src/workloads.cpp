#include "workloads.hpp"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <exception>
#include <memory>
#include <thread>
#include <type_traits>

#include "core/instance_tracker.hpp"
#include "core/posg_scheduler.hpp"
#include "metrics/stats.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "runtime/instance_runtime.hpp"
#include "runtime/scheduler_runtime.hpp"
#include "sim/simulator.hpp"
#include "workload/stream.hpp"
#include "workload/tweets.hpp"

namespace perfbench {

namespace {

using namespace posg;

// Instances per workload. The socket workloads keep router + k instance
// threads within a 4-core host's cores (the SchedulerRuntime readers
// wake only for feedback frames); route-tweets runs the same k single-
// threaded, as the baseline of that job. sim-tweets uses the paper's k.
constexpr std::size_t kSocketInstances = 3;
constexpr std::size_t kSimInstances = 5;

// Capacity over offered work on the virtual clock that scores decisions
// (L, makespan). At exactly 1.0, the paper's setting, the queues follow
// the random walk of the stream's total work and L moves by 25-50% from
// seed to seed whatever the scheduler does; 10% headroom keeps the queues
// stable so that L reflects the decisions.
constexpr double kOverProvisioning = 1.1;

// socket-paced offered load: about a third of socket-burst's capacity on
// a 4-core host, so the backlog never grows.
constexpr double kPacedRate = 100'000.0;

// Every tuple whose index is a multiple of this has its estimate error
// sampled in traced repeats.
constexpr std::size_t kEstimateEvery = 64;

void sample_estimate(const core::PosgScheduler& scheduler, common::Item item, double truth,
                     std::vector<double>& out) {
  if (const auto estimate = scheduler.estimate(item)) {
    out.push_back(std::abs(*estimate - truth));
  }
}

template <typename Call>
auto timed(std::vector<double>& span, Call&& call) {
  const TimePoint begin = Clock::now();
  if constexpr (std::is_void_v<decltype(call())>) {
    call();
    span.push_back(ns_between(begin, Clock::now()));
  } else {
    auto result = call();
    span.push_back(ns_between(begin, Clock::now()));
    return result;
  }
}

void count_routes(Repeat& repeat, std::size_t k) {
  repeat.routed.assign(k, 0);
  for (const std::uint8_t op : repeat.decisions) {
    ++repeat.routed[op];
  }
}

void gate_scheduler(Repeat& repeat, const core::PosgScheduler& scheduler) {
  repeat.loads = scheduler.estimated_loads();
  repeat.quarantined = scheduler.failed_instances();
  repeat.epochs = scheduler.epochs_completed();
}

// --- route-tweets: schedule + inline execution on one thread -------------

template <bool kTraced>
void route_loop(const Inputs& in, Repeat& repeat) {
  const std::size_t n = in.stream.size();
  const std::size_t k = in.instances;
  std::vector<double>* schedule_ns = nullptr;
  std::vector<double>* update_ns = nullptr;
  std::vector<double>* sketches_ns = nullptr;
  std::vector<double>* reply_ns = nullptr;
  if constexpr (kTraced) {
    schedule_ns = &repeat.spans["core.schedule_ns"];
    update_ns = &repeat.spans["core.tracker_update_ns"];
    sketches_ns = &repeat.spans["core.on_sketches_ns"];
    reply_ns = &repeat.spans["core.on_sync_reply_ns"];
    schedule_ns->reserve(n);
    update_ns->reserve(n);
  }
  repeat.latency_ms.reserve(n / kBlock + 1);

  const TimePoint start = Clock::now();
  core::PosgConfig config;
  core::PosgScheduler scheduler(k, config);
  std::vector<core::InstanceTracker> trackers;
  trackers.reserve(k);
  for (common::InstanceId op = 0; op < k; ++op) {
    trackers.emplace_back(op, config);
  }
  const TimePoint first = Clock::now();
  repeat.setup_s = seconds_between(start, first);

  TimePoint block_start = first;
  for (std::size_t i = 0; i < n; ++i) {
    const common::Item item = in.stream[i];
    core::Decision decision;
    if constexpr (kTraced) {
      if (i % kEstimateEvery == 0) {
        sample_estimate(scheduler, item, in.cost[i], repeat.estimate_err);
      }
      decision = timed(*schedule_ns, [&] { return scheduler.schedule(item, i); });
    } else {
      decision = scheduler.schedule(item, i);
    }
    repeat.decisions[i] = static_cast<std::uint8_t>(decision.instance);
    core::InstanceTracker& tracker = trackers[decision.instance];
    std::optional<core::SketchShipment> shipment;
    if constexpr (kTraced) {
      shipment = timed(*update_ns, [&] { return tracker.on_executed(item, in.cost[i]); });
    } else {
      shipment = tracker.on_executed(item, in.cost[i]);
    }
    if (shipment) {
      ++repeat.shipments;
      if constexpr (kTraced) {
        timed(*sketches_ns, [&] { scheduler.on_sketches(std::move(*shipment)); });
      } else {
        scheduler.on_sketches(std::move(*shipment));
      }
    }
    if (decision.sync_request) {
      ++repeat.sync_replies;
      const core::SyncReply reply = tracker.on_sync_request(*decision.sync_request);
      if constexpr (kTraced) {
        timed(*reply_ns, [&] { scheduler.on_sync_reply(reply); });
      } else {
        scheduler.on_sync_reply(reply);
      }
    }
    if ((i + 1) % kBlock == 0) {
      const TimePoint now = Clock::now();
      repeat.latency_ms.push_back(seconds_between(block_start, now) * 1e3 / kBlock);
      block_start = now;
    }
  }
  repeat.run_s = seconds_between(first, Clock::now());
  repeat.proc_end = ProcSample::now();

  count_routes(repeat, k);
  repeat.executed_at.resize(k);
  for (common::InstanceId op = 0; op < k; ++op) {
    repeat.executed_at[op] = trackers[op].executed_count();
    repeat.executed += trackers[op].executed_count();
  }
  gate_scheduler(repeat, scheduler);
}

// --- sim-tweets: Simulator::run at paper settings -------------------------

/// Forwards to a PosgScheduler and times every call (traced repeats).
/// Simulator::run treats it as an opaque policy, which changes nothing in
/// the decisions: the driver checks that the digest matches the untraced
/// repeats.
class TimedScheduler final : public core::Scheduler {
 public:
  TimedScheduler(core::PosgScheduler& inner, const Inputs& in, Repeat& repeat)
      : inner_(inner),
        in_(in),
        repeat_(repeat),
        schedule_ns_(repeat.spans["core.schedule_ns"]),
        sketches_ns_(repeat.spans["core.on_sketches_ns"]),
        reply_ns_(repeat.spans["core.on_sync_reply_ns"]) {
    schedule_ns_.reserve(in.stream.size());
  }

  core::Decision schedule(common::Item item, common::SeqNo seq) override {
    if (seq % kEstimateEvery == 0) {
      sample_estimate(inner_, item, in_.cost[seq], repeat_.estimate_err);
    }
    return timed(schedule_ns_, [&] { return inner_.schedule(item, seq); });
  }
  void on_sketches(const core::SketchShipment& shipment) override {
    timed(sketches_ns_, [&] { inner_.on_sketches(shipment); });
  }
  void on_sketches(core::SketchShipment&& shipment) override {
    timed(sketches_ns_, [&] { inner_.on_sketches(std::move(shipment)); });
  }
  void on_sync_reply(const core::SyncReply& reply) override {
    timed(reply_ns_, [&] { inner_.on_sync_reply(reply); });
  }
  std::size_t instances() const override { return inner_.instances(); }
  std::string name() const override { return inner_.name(); }

 private:
  core::PosgScheduler& inner_;
  const Inputs& in_;
  Repeat& repeat_;
  std::vector<double>& schedule_ns_;
  std::vector<double>& sketches_ns_;
  std::vector<double>& reply_ns_;
};

void sim_run(const Inputs& in, Repeat& repeat, bool traced) {
  const std::size_t n = in.stream.size();
  const std::size_t k = in.instances;
  repeat.latency_ms.reserve(n / kBlock + 1);
  std::vector<double>* cost_ns = traced ? &repeat.spans["sim.cost_callback_ns"] : nullptr;
  if (cost_ns != nullptr) {
    cost_ns->reserve(n);
  }

  const TimePoint start = Clock::now();
  TimePoint first{};
  TimePoint block_start{};
  sim::Simulator::Config config;
  config.instances = k;
  config.inter_arrival = in.inter_arrival;
  config.control_latency = 1.0;
  // The cost callback runs once per tuple, right after the tuple was
  // scheduled: it stamps the first routed tuple, records the decision and
  // closes latency blocks.
  sim::Simulator simulator(config, [&](common::Item, common::InstanceId op, common::SeqNo seq) {
    const TimePoint now = Clock::now();
    if (seq == 0) {
      first = now;
      block_start = now;
    }
    repeat.decisions[seq] = static_cast<std::uint8_t>(op);
    if ((seq + 1) % kBlock == 0) {
      repeat.latency_ms.push_back(seconds_between(block_start, now) * 1e3 / kBlock);
      block_start = now;
    }
    if (cost_ns != nullptr) {
      cost_ns->push_back(ns_between(now, Clock::now()));
    }
    return in.cost[seq];
  });
  core::PosgScheduler scheduler(k, config.posg);

  sim::Simulator::Result result;
  if (traced) {
    TimedScheduler proxy(scheduler, in, repeat);
    result = simulator.run(in.stream, proxy);
  } else {
    result = simulator.run(in.stream, scheduler);
  }
  const TimePoint end = Clock::now();
  repeat.proc_end = ProcSample::now();
  repeat.setup_s = seconds_between(start, first);
  repeat.run_s = seconds_between(first, end);

  count_routes(repeat, k);
  repeat.executed_at = result.instance_tuples;
  for (const std::uint64_t executed : result.instance_tuples) {
    repeat.executed += executed;
  }
  repeat.shipments = result.messages.sketch_shipments;
  repeat.sync_replies = result.messages.sync_replies;
  gate_scheduler(repeat, scheduler);

  Replay quality;
  quality.L_mean = result.completions.average();
  quality.L_p99 = metrics::percentile(result.completions.values(), 99.0);
  quality.makespan_ratio = makespan_ratio(result.instance_work);
  quality.digest = decision_digest(repeat.decisions);
  repeat.quality = quality;

  if (traced) {
    double inside = 0.0;
    for (const auto& [name, span] : repeat.spans) {
      for (const double ns : span) {
        inside += ns;
      }
    }
    repeat.values["sim.self_ns_per_tuple"] =
        (repeat.run_s * 1e9 - inside) / static_cast<double>(n);
    repeat.values["sim.sketch_shipments"] = static_cast<double>(result.messages.sketch_shipments);
    repeat.values["sim.sync_markers"] = static_cast<double>(result.messages.sync_markers);
    repeat.values["sim.sync_replies"] = static_cast<double>(result.messages.sync_replies);
  }
}

// --- socket-burst / socket-paced: SchedulerRuntime over socket pairs -----

/// Instance threads; declared before the SchedulerRuntime so that on any
/// exit the runtime finishes first (EndOfStream, links closed) and the
/// threads then return and are joined here.
struct InstanceThreads {
  std::vector<std::thread> threads;
  std::vector<runtime::InstanceRuntime::Stats> stats;

  void join() {
    for (std::thread& thread : threads) {
      if (thread.joinable()) {
        thread.join();
      }
    }
  }
  ~InstanceThreads() { join(); }
};

void socket_run(const Inputs& in, Repeat& repeat, bool traced, bool paced) {
  const std::size_t n = in.stream.size();
  const std::size_t k = in.instances;
  // Instance-side execution stamps: the cost_model callback runs once per
  // executed tuple, so stamps[op][j] is when op executed its j-th tuple.
  std::vector<std::vector<TimePoint>> stamps(k);
  for (auto& column : stamps) {
    column.reserve(n);
  }
  std::vector<TimePoint> issued(traced ? n : 0);
  std::vector<TimePoint> returned(traced ? n : 0);
  repeat.latency_ms.reserve(paced ? n : n / kBlock + 1);
  std::vector<double> lag_s;

  InstanceThreads instances;
  instances.stats.resize(k);
  const TimePoint start = Clock::now();
  runtime::SchedulerRuntimeConfig config;
  config.instances = k;
  runtime::SchedulerRuntime rt(config);
  runtime::InstanceRuntimeConfig instance_config;
  instance_config.posg = config.posg;
  for (common::InstanceId op = 0; op < k; ++op) {
    auto [scheduler_end, instance_end] = net::socket_pair();
    rt.attach(op, std::make_unique<net::SocketTransport>(std::move(scheduler_end)));
    instance_config.cost_model = [&column = stamps[op], &in](common::Item item) {
      column.push_back(Clock::now());
      return in.item_cost[item];
    };
    instances.threads.emplace_back([op, instance_config, &stats = instances.stats[op],
                                    socket = std::move(instance_end)]() mutable {
      net::SocketTransport link(std::move(socket));
      runtime::InstanceRuntime loop(op, instance_config);
      stats = loop.run(link);
    });
  }
  rt.start();
  const TimePoint first = Clock::now();
  repeat.setup_s = seconds_between(start, first);

  TimePoint block_start = first;
  auto route = [&](std::size_t i) {
    if (traced) {
      issued[i] = Clock::now();
    }
    repeat.decisions[i] = static_cast<std::uint8_t>(rt.route(in.stream[i], i));
    if (traced) {
      returned[i] = Clock::now();
    }
  };
  const OpenLoop schedule{first, in.paced_rate};
  if (paced) {
    schedule.run(n, route, lag_s);
  } else {
    // Saturated, the links' buffers fill and drain in bursts and a
    // tuple's completion latency only measures how full they were, so
    // the closed loop reports its time per routed tuple, as route-tweets
    // does.
    for (std::size_t i = 0; i < n; ++i) {
      route(i);
      if ((i + 1) % kBlock == 0) {
        const TimePoint now = Clock::now();
        repeat.latency_ms.push_back(seconds_between(block_start, now) * 1e3 / kBlock);
        block_start = now;
      }
    }
  }
  const TimePoint finish_begin = Clock::now();
  rt.finish();
  instances.join();
  const double finish_s = seconds_between(finish_begin, Clock::now());
  repeat.proc_end = ProcSample::now();

  count_routes(repeat, k);
  const std::vector<std::uint64_t> runtime_routed = rt.routed_counts();
  if (runtime_routed != repeat.routed) {
    repeat.error = "routed_counts() disagrees with the route() return values";
  }
  repeat.executed_at.resize(k);
  for (common::InstanceId op = 0; op < k; ++op) {
    const auto& stats = instances.stats[op];
    repeat.executed_at[op] = stats.executed;
    repeat.executed += stats.executed;
    repeat.shipments += stats.shipments;
    repeat.sync_replies += stats.replies_sent;
  }
  repeat.loads = rt.estimated_loads();
  repeat.quarantined = rt.quarantined();
  repeat.reroutes = rt.reroutes();
  repeat.epochs = rt.scheduler().epochs_completed();

  std::vector<TimePoint> executed;
  try {
    executed = pair_fifo(repeat.decisions, stamps);
  } catch (const std::exception& e) {
    repeat.error = e.what();
    return;
  }
  const TimePoint last = *std::max_element(executed.begin(), executed.end());
  repeat.run_s = seconds_between(first, last);
  if (paced) {
    repeat.latency_ms = latency_from_due_ms(schedule, executed);
  }

  if (traced) {
    auto& route_ns = repeat.spans["runtime.route_ns"];
    auto& transit_us = repeat.spans["net.transit_us"];
    route_ns.resize(n);
    transit_us.resize(n);
    for (std::size_t i = 0; i < n; ++i) {
      route_ns[i] = ns_between(issued[i], returned[i]);
      transit_us[i] = ns_between(returned[i], executed[i]) * 1e-3;
    }
    if (paced) {
      repeat.spans["gen.lag_ms"].resize(n);
      std::transform(lag_s.begin(), lag_s.end(), repeat.spans["gen.lag_ms"].begin(),
                     [](double s) { return s * 1e3; });
    }
    for (std::size_t i = 0; i < n; i += kEstimateEvery) {
      sample_estimate(rt.scheduler(), in.stream[i], in.cost[i], repeat.estimate_err);
    }
    repeat.values["runtime.finish_s"] = finish_s;
    repeat.values["runtime.stale_replies"] = static_cast<double>(rt.stale_replies());
    repeat.values["runtime.reroutes"] = static_cast<double>(repeat.reroutes);
    repeat.values["runtime.quarantined"] = static_cast<double>(repeat.quarantined.size());
    repeat.values["instance.shipments"] = static_cast<double>(repeat.shipments);
    repeat.values["instance.replies_sent"] = static_cast<double>(repeat.sync_replies);
  }
}

}  // namespace

std::optional<Workload> parse_workload(std::string_view name) {
  for (const Workload workload : {Workload::kRouteTweets, Workload::kSimTweets,
                                  Workload::kSocketBurst, Workload::kSocketPaced}) {
    if (name == workload_name(workload)) {
      return workload;
    }
  }
  return std::nullopt;
}

const char* workload_name(Workload workload) {
  switch (workload) {
    case Workload::kRouteTweets:
      return "route-tweets";
    case Workload::kSimTweets:
      return "sim-tweets";
    case Workload::kSocketBurst:
      return "socket-burst";
    case Workload::kSocketPaced:
      return "socket-paced";
  }
  return "?";
}

std::vector<Inputs> make_inputs(Workload workload, std::uint64_t seed,
                                std::size_t stream_length) {
  // route-tweets routes the whole 2 M-tuple stream per repeat: long enough
  // that L_p99 of one stream sample varies little from seed to seed. The
  // others route the next segment of it each repeat (0.2-1 s of work), so
  // a run holds many short repeats, their median L covers many stream
  // samples, and sim-tweets' working set stays small enough that a
  // neighbour's cache traffic moves it less.
  constexpr std::size_t kStreamLength = 2'000'000;
  std::size_t segment = kStreamLength;
  Inputs in;
  in.workload = workload;
  in.instances = kSocketInstances;
  switch (workload) {
    case Workload::kRouteTweets:
      break;
    case Workload::kSimTweets:
      segment = 250'000;
      in.instances = kSimInstances;
      break;
    case Workload::kSocketBurst:
      segment = 250'000;
      break;
    case Workload::kSocketPaced:
      segment = 100'000;
      in.paced_rate = kPacedRate;
      break;
  }
  const std::size_t length = stream_length != 0 ? stream_length : kStreamLength;
  segment = std::min(segment, length);
  // The entity world (which entities are media, politicians or others,
  // and so what each costs) is the dataset's default; the seed draws the
  // stream from it. Drawing the classes from the seed as well moves L by
  // tens of percent from seed to seed, which would hide any change in the
  // scheduler.
  workload::TweetDatasetConfig config;
  config.stream_length = 1;
  const workload::TweetDataset dataset(config);
  const std::vector<common::Item> stream =
      workload::StreamGenerator::generate(dataset.distribution(), length, seed);
  in.item_cost.resize(config.entities);
  for (common::Item entity = 0; entity < config.entities; ++entity) {
    in.item_cost[entity] = dataset.execution_time(entity);
  }

  std::vector<Inputs> segments;
  for (std::size_t begin = 0; begin + segment <= length; begin += segment) {
    Inputs& part = segments.emplace_back(in);
    part.stream.assign(stream.begin() + static_cast<std::ptrdiff_t>(begin),
                       stream.begin() + static_cast<std::ptrdiff_t>(begin + segment));
    part.cost.resize(segment);
    double total = 0.0;
    for (std::size_t i = 0; i < segment; ++i) {
      part.cost[i] = in.item_cost[part.stream[i]];
      total += part.cost[i];
    }
    part.inter_arrival = kOverProvisioning * total / static_cast<double>(segment) /
                         static_cast<double>(in.instances);
  }
  return segments;
}

Repeat run_repeat(const Inputs& in, bool traced) {
  // Hand freed memory back to the kernel, so that every repeat's set-up
  // pays for its page faults as a fresh process would, whatever the
  // allocator kept from the repeat before.
  malloc_trim(0);
  Repeat repeat;
  repeat.offered = in.stream.size();
  repeat.decisions.assign(in.stream.size(), 0);
  repeat.proc_begin = ProcSample::now();
  switch (in.workload) {
    case Workload::kRouteTweets:
      if (traced) {
        route_loop<true>(in, repeat);
      } else {
        route_loop<false>(in, repeat);
      }
      break;
    case Workload::kSimTweets:
      sim_run(in, repeat, traced);
      break;
    case Workload::kSocketBurst:
      socket_run(in, repeat, traced, /*paced=*/false);
      break;
    case Workload::kSocketPaced:
      socket_run(in, repeat, traced, /*paced=*/true);
      break;
  }
  if (!repeat.quality && repeat.error.empty()) {
    repeat.quality = replay_virtual_time(repeat.decisions, in.cost, in.instances,
                                         in.inter_arrival);
  }
  return repeat;
}

}  // namespace perfbench
