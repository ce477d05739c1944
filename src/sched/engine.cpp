#include "sched/engine.hpp"

#include <algorithm>
#include <optional>
#include <stdexcept>

#include "net/fabric.hpp"
#include "net/routing.hpp"
#include "node/energy.hpp"
#include "node/roofline.hpp"
#include "obs/log.hpp"
#include "obs/trace.hpp"

namespace rb::sched {

namespace {

/// Accelerator code path efficiency applied to non-CPU devices.
constexpr double kAccelEfficiency = 0.85;

const obs::Logger& sched_log() {
  static const obs::Logger logger{"sched"};
  return logger;
}

struct SchedMetrics {
  obs::Counter* dispatched;
  obs::Counter* retried;
  obs::Counter* killed;
  obs::Counter* completed;
  obs::Counter* jobs_failed;

  static SchedMetrics& get() {
    auto& r = obs::Registry::global();
    static SchedMetrics m{&r.counter("sched.tasks_dispatched"),
                          &r.counter("sched.tasks_retried"),
                          &r.counter("sched.tasks_killed"),
                          &r.counter("sched.tasks_completed"),
                          &r.counter("sched.jobs_failed")};
    return m;
  }
};

/// Deterministic pseudo-random input placement for a task.
std::size_t place_input(std::size_t job, std::size_t stage, std::size_t index,
                        std::size_t machines) {
  const std::uint64_t h =
      (job * 0x9e3779b97f4a7c15ULL) ^ (stage * 0xbf58476d1ce4e5b9ULL) ^
      (index * 0x94d049bb133111ebULL);
  return static_cast<std::size_t>((h >> 17) % machines);
}

struct StageState {
  std::size_t remaining = 0;  // tasks not yet finished
  bool done = false;
  bool released = false;  // tasks added to the ready set
};

struct JobState {
  dataflow::JobGraph graph{"?"};
  sim::SimTime arrival = 0;
  std::vector<StageState> stages;
  std::size_t stages_done = 0;
  bool finished = false;
  bool failed = false;
};

/// Bookkeeping for a dispatched task occupying an executor.
struct Running {
  ReadyTask task;
  bool fetching = false;           // waiting on a fetch flow
  net::FlowId fetch_flow = 0;
  sim::EventHandle done_event;     // compute completion, when not fetching
  sim::SimTime planned_end = 0;    // refund busy time if killed mid-compute
  std::uint64_t span_id = 0;       // obs trace span of this attempt
};

}  // namespace

RunResult run_jobs(const Cluster& cluster, std::vector<JobArrival> jobs,
                   Policy& policy, const EngineParams& params) {
  if (cluster.machines.empty())
    throw std::invalid_argument{"run_jobs: empty cluster"};
  if (params.fault_plan != nullptr) {
    if (params.max_attempts < 1)
      throw std::invalid_argument{"run_jobs: max_attempts must be >= 1"};
    if (params.retry_backoff < 0 || params.retry_backoff_cap < 0)
      throw std::invalid_argument{"run_jobs: negative retry backoff"};
    for (const auto& event : params.fault_plan->events()) {
      if (event.target == faults::FaultTarget::kMachine) {
        if (event.id >= cluster.machines.size())
          throw std::invalid_argument{"run_jobs: fault plan targets unknown "
                                      "machine"};
      } else if (params.fabric == nullptr) {
        throw std::invalid_argument{
            "run_jobs: fault plan has link/node events but no fabric topology "
            "was supplied"};
      }
    }
  }

  // --- Build executors ---
  std::vector<Executor> executors;
  for (std::size_t m = 0; m < cluster.machines.size(); ++m) {
    const auto& machine = cluster.machines[m];
    for (int s = 0; s < machine.cpu_slots; ++s) {
      executors.push_back(
          Executor{executors.size(), m, &machine.cpu, true, false});
    }
    for (const auto& accel : machine.accelerators) {
      executors.push_back(
          Executor{executors.size(), m, &accel, false, false});
    }
  }

  // --- Job state ---
  std::vector<JobState> state;
  state.reserve(jobs.size());
  for (auto& j : jobs) {
    JobState js;
    js.stages.resize(j.graph.stage_count());
    for (std::size_t s = 0; s < j.graph.stage_count(); ++s) {
      js.stages[s].remaining = j.graph.stage(s).task_count;
    }
    js.arrival = j.arrival;
    js.graph = std::move(j.graph);
    state.push_back(std::move(js));
  }

  sim::Simulator sim;
  std::vector<ReadyTask> ready;
  std::vector<std::size_t> running_per_job(state.size(), 0);
  std::vector<std::size_t> running_cpu_per_job(state.size(), 0);
  std::vector<std::size_t> running_accel_per_job(state.size(), 0);
  std::vector<bool> machine_up(cluster.machines.size(), true);
  std::vector<std::optional<Running>> running(executors.size());
  RunResult result;
  result.jobs.resize(state.size());
  for (std::size_t j = 0; j < state.size(); ++j) {
    result.jobs[j].name = state[j].graph.name();
    result.jobs[j].arrival = state[j].arrival;
  }

  // --- Optional fabric for remote fetches (fault-aware flow simulation) ---
  std::optional<net::Router> router;
  std::optional<net::FlowSimulator> fabric;
  std::vector<net::NodeId> hosts;
  if (params.fabric != nullptr) {
    hosts = params.fabric->nodes_of_kind(net::NodeKind::kHost);
    if (hosts.empty())
      throw std::invalid_argument{"run_jobs: fabric topology has no hosts"};
    router.emplace(*params.fabric);
    fabric.emplace(sim, *params.fabric, *router);
  }
  const auto host_of = [&](std::size_t machine) {
    return hosts[machine % hosts.size()];
  };

  double cpu_busy_s = 0.0, accel_busy_s = 0.0;
  std::size_t cpu_slots = 0, accel_slots = 0;
  for (const auto& e : executors) (e.is_cpu_slot ? cpu_slots : accel_slots)++;

  // --- Telemetry (all guarded by obs::enabled() at use sites) ---
  const bool observed = obs::enabled();
  std::uint64_t next_span_id = 1;
  std::vector<int> busy_per_machine(cluster.machines.size(), 0);
  std::vector<obs::Gauge*> occupancy_gauges;
  if (observed) {
    occupancy_gauges.reserve(cluster.machines.size());
    for (std::size_t m = 0; m < cluster.machines.size(); ++m) {
      occupancy_gauges.push_back(&obs::Registry::global().gauge(
          "sched.machine_busy_slots", {{"machine", std::to_string(m)}}));
    }
  }
  const auto note_occupancy = [&](std::size_t machine, int delta) {
    if (!observed) return;
    busy_per_machine[machine] += delta;
    occupancy_gauges[machine]->set(
        static_cast<double>(busy_per_machine[machine]));
  };

  // --- Cost model shared by the engine and the policy view ---
  const auto compute_time = [&](const ReadyTask& task,
                                const Executor& exec) -> sim::SimTime {
    node::DeviceModel device = *exec.device;
    if (!exec.is_cpu_slot) {
      device.peak_gflops *= kAccelEfficiency;
    } else {
      // A CPU slot is one share of the socket: divide capability by slots.
      const auto slots = static_cast<double>(
          cluster.machines[exec.machine].cpu_slots);
      device.peak_gflops /= slots;
      device.mem_bw_gbs /= slots;
    }
    return node::offload_time(device, task.spec->per_task_kernel);
  };
  const auto task_time = [&](const ReadyTask& task,
                             const Executor& exec) -> sim::SimTime {
    sim::SimTime t = compute_time(task, exec);
    if (task.locality_machine != exec.machine) {
      const double fetch_s =
          task.spec->per_task_kernel.bytes / (cluster.network_gbs * 1e9);
      t += sim::from_seconds(fetch_s);
    }
    return std::max<sim::SimTime>(t, 1);
  };
  const auto energy_for = [&](const Executor& exec,
                              double seconds) -> sim::Joules {
    const auto& device = *exec.device;
    double active_share = 1.0;
    if (exec.is_cpu_slot) {
      active_share = 1.0 / static_cast<double>(
                               cluster.machines[exec.machine].cpu_slots);
    }
    return (device.active_power - device.idle_power) * active_share * seconds;
  };
  const auto task_energy = [&](const ReadyTask& task,
                               const Executor& exec) -> sim::Joules {
    return energy_for(exec, sim::to_seconds(task_time(task, exec)));
  };

  Policy::View view;
  view.cluster = &cluster;
  view.running_per_job = &running_per_job;
  view.running_cpu_per_job = &running_cpu_per_job;
  view.running_accel_per_job = &running_accel_per_job;
  view.total_cpu_slots = cpu_slots;
  view.total_accel_slots = accel_slots;
  view.eta = [&](const ReadyTask& t, const Executor& e) {
    return task_time(t, e);
  };
  view.energy = [&](const ReadyTask& t, const Executor& e) {
    return task_energy(t, e);
  };

  const auto backoff_for = [&](int attempt) -> sim::SimTime {
    sim::SimTime d = std::max<sim::SimTime>(params.retry_backoff, 1);
    for (int i = 1; i < attempt && d < params.retry_backoff_cap; ++i) d *= 2;
    return std::min(d, std::max<sim::SimTime>(params.retry_backoff_cap, 1));
  };

  // Forward declarations of the mutually recursive steps.
  std::function<void()> dispatch;
  std::function<void(std::size_t)> release_ready_stages;
  std::function<void(std::size_t)> on_task_done;     // by executor id
  std::function<void(std::size_t)> start_compute;    // by executor id
  std::function<void(std::size_t)> kill_running;     // by executor id
  std::function<void(ReadyTask)> requeue_or_fail;
  std::function<void(std::size_t)> fail_job;

  const auto free_executor = [&](std::size_t exec_id, std::size_t j) {
    const auto& exec = executors[exec_id];
    executors[exec_id].busy = false;
    note_occupancy(exec.machine, -1);
    --running_per_job[j];
    if (exec.is_cpu_slot) {
      --running_cpu_per_job[j];
    } else {
      --running_accel_per_job[j];
    }
  };

  release_ready_stages = [&](std::size_t j) {
    auto& js = state[j];
    if (js.failed) return;
    std::vector<bool> done(js.stages.size());
    for (std::size_t s = 0; s < js.stages.size(); ++s) {
      done[s] = js.stages[s].done;
    }
    for (const std::size_t s : js.graph.runnable(done)) {
      if (js.stages[s].released) continue;
      js.stages[s].released = true;
      const auto& spec = js.graph.stage(s);
      for (std::size_t i = 0; i < spec.task_count; ++i) {
        ready.push_back(ReadyTask{
            j, s, i, &js.graph.stage(s),
            place_input(j, s, i, cluster.machine_count()), sim.now(), 1});
      }
    }
  };

  fail_job = [&](std::size_t j) {
    auto& js = state[j];
    if (js.failed || js.finished) return;
    js.failed = true;
    ++result.jobs_failed;
    result.jobs[j].failed = true;
    result.jobs[j].completion = sim.now();
    if (observed) {
      SchedMetrics::get().jobs_failed->add();
      obs::TraceRecorder::global().async_end(
          "sched.job", js.graph.name(), j, sim.now(),
          {obs::trace_arg("outcome", "failed")});
    }
    sched_log().error() << "job " << js.graph.name()
                        << " failed: task exhausted its attempts";
    // Abandon this job's queued tasks; running ones finish and are counted
    // in tasks_run but no longer advance any stage.
    ready.erase(std::remove_if(ready.begin(), ready.end(),
                               [j](const ReadyTask& t) { return t.job == j; }),
                ready.end());
  };

  requeue_or_fail = [&](ReadyTask task) {
    auto& js = state[task.job];
    if (js.failed || js.finished) return;
    if (task.attempt >= params.max_attempts) {
      fail_job(task.job);
      return;
    }
    const sim::SimTime delay = backoff_for(task.attempt);
    sched_log().info() << "task j" << task.job << "/s" << task.stage << "/"
                       << task.index << " attempt " << task.attempt
                       << " killed; retrying in " << sim::to_seconds(delay)
                       << " s";
    task.attempt += 1;
    sim.schedule_in(delay, [&, task] {
      if (state[task.job].failed || state[task.job].finished) return;
      ReadyTask t = task;
      t.ready_since = sim.now();
      ready.push_back(t);
      dispatch();
    });
  };

  on_task_done = [&](std::size_t exec_id) {
    const Running run = std::move(*running[exec_id]);
    running[exec_id].reset();
    const std::size_t j = run.task.job;
    const std::size_t s = run.task.stage;
    auto& js = state[j];
    free_executor(exec_id, j);
    ++result.tasks_run;
    if (observed) {
      SchedMetrics::get().completed->add();
      obs::TraceRecorder::global().async_end(
          "sched.task", run.task.spec->name, run.span_id, sim.now(),
          {obs::trace_arg("outcome", "ok")});
    }
    if (js.failed) {
      dispatch();
      return;
    }
    auto& stage = js.stages[s];
    if (--stage.remaining == 0) {
      stage.done = true;
      ++js.stages_done;
      if (js.stages_done == js.stages.size()) {
        js.finished = true;
        result.jobs[j].completion = sim.now();
        if (observed) {
          obs::TraceRecorder::global().async_end(
              "sched.job", js.graph.name(), j, sim.now(),
              {obs::trace_arg("outcome", "completed")});
        }
      } else {
        // Downstream stages become ready after the shuffle data lands.
        const auto& spec = js.graph.stage(s);
        const double shuffle_bytes =
            static_cast<double>(spec.shuffle_bytes_per_task) *
            static_cast<double>(spec.task_count);
        const double cluster_bw =
            cluster.network_gbs * 1e9 *
            static_cast<double>(cluster.machine_count());
        const sim::SimTime delay =
            sim::from_seconds(shuffle_bytes / cluster_bw);
        sim.schedule_in(std::max<sim::SimTime>(delay, 1), [&, j] {
          release_ready_stages(j);
          dispatch();
        });
        return;  // dispatch happens after release
      }
    }
    dispatch();
  };

  start_compute = [&](std::size_t exec_id) {
    auto& run = *running[exec_id];
    run.fetching = false;
    const auto& exec = executors[exec_id];
    const sim::SimTime t =
        std::max<sim::SimTime>(compute_time(run.task, exec), 1);
    const double seconds = sim::to_seconds(t);
    result.energy += energy_for(exec, seconds);
    (exec.is_cpu_slot ? cpu_busy_s : accel_busy_s) += seconds;
    run.planned_end = sim.now() + t;
    run.done_event = sim.schedule_in(t, [&, exec_id] { on_task_done(exec_id); });
  };

  kill_running = [&](std::size_t exec_id) {
    Running run = std::move(*running[exec_id]);
    running[exec_id].reset();
    run.done_event.cancel();
    if (run.fetching && fabric) fabric->cancel_flow(run.fetch_flow);
    // Refund the un-run tail of a planned compute window so utilization
    // reflects work actually performed.
    if (!run.fetching && run.planned_end > sim.now()) {
      const double refund = sim::to_seconds(run.planned_end - sim.now());
      (executors[exec_id].is_cpu_slot ? cpu_busy_s : accel_busy_s) -= refund;
    }
    free_executor(exec_id, run.task.job);
    ++result.tasks_killed_by_failure;
    if (observed) {
      SchedMetrics::get().killed->add();
      obs::TraceRecorder::global().async_end(
          "sched.task", run.task.spec->name, run.span_id, sim.now(),
          {obs::trace_arg("outcome", "killed")});
    }
    requeue_or_fail(run.task);
  };

  dispatch = [&] {
    for (;;) {
      if (ready.empty()) return;
      std::vector<const Executor*> idle;
      for (const auto& e : executors) {
        if (!e.busy && machine_up[e.machine]) idle.push_back(&e);
      }
      if (idle.empty()) return;
      view.now = sim.now();
      const auto choice = policy.choose(ready, idle, view);
      if (!choice) return;
      const auto [task_idx, exec_idx] = *choice;
      if (task_idx >= ready.size() || exec_idx >= idle.size())
        throw std::logic_error{"Policy returned out-of-range choice"};
      const ReadyTask task = ready[task_idx];
      auto& exec = executors[idle[exec_idx]->id];

      ready.erase(ready.begin() + static_cast<std::ptrdiff_t>(task_idx));
      exec.busy = true;
      ++running_per_job[task.job];
      if (exec.is_cpu_slot) {
        ++running_cpu_per_job[task.job];
      } else {
        ++running_accel_per_job[task.job];
      }
      if (task.attempt == 1) {
        ++result.tasks_dispatched;
      } else {
        ++result.tasks_retried;
      }
      std::uint64_t span_id = 0;
      if (observed) {
        (task.attempt == 1 ? SchedMetrics::get().dispatched
                           : SchedMetrics::get().retried)
            ->add();
        note_occupancy(exec.machine, +1);
        span_id = next_span_id++;
        obs::TraceRecorder::global().async_begin(
            "sched.task", task.spec->name, span_id, sim.now(),
            {obs::trace_arg("job", static_cast<std::uint64_t>(task.job)),
             obs::trace_arg("stage", static_cast<std::uint64_t>(task.stage)),
             obs::trace_arg("index", static_cast<std::uint64_t>(task.index)),
             obs::trace_arg("attempt", static_cast<std::int64_t>(task.attempt)),
             obs::trace_arg("machine",
                            static_cast<std::uint64_t>(exec.machine))});
      }
      const std::size_t exec_id = exec.id;
      const bool remote = task.locality_machine != exec.machine;
      if (remote) ++result.remote_tasks;

      const sim::Bytes fetch_bytes = static_cast<sim::Bytes>(
          task.spec->per_task_kernel.bytes);
      if (fabric && remote && fetch_bytes > 0 &&
          host_of(task.locality_machine) != host_of(exec.machine)) {
        // Fetch the input over the simulated fabric; compute starts when the
        // flow lands. A failed flow (disconnection) kills the attempt.
        Running run;
        run.task = task;
        run.fetching = true;
        run.span_id = span_id;
        running[exec_id] = std::move(run);
        try {
          const auto flow_id = fabric->start_flow(
              host_of(task.locality_machine), host_of(exec.machine),
              fetch_bytes, [&, exec_id](const net::FlowRecord& rec) {
                auto& slot = running[exec_id];
                if (!slot || !slot->fetching || slot->fetch_flow != rec.id)
                  return;  // stale: the attempt was killed meanwhile
                if (rec.outcome == net::FlowOutcome::kFailed) {
                  kill_running(exec_id);
                  dispatch();
                  return;
                }
                (executors[exec_id].is_cpu_slot ? cpu_busy_s : accel_busy_s) +=
                    sim::to_seconds(rec.finish - rec.start);
                start_compute(exec_id);
              });
          running[exec_id]->fetch_flow = flow_id;
        } catch (const net::NoRouteError&) {
          // Input unreachable right now (host down / partition): the attempt
          // dies immediately and retries after backoff.
          kill_running(exec_id);
        }
        continue;
      }

      const sim::SimTime t = task_time(task, exec);
      const sim::Joules e = task_energy(task, exec);
      result.energy += e;
      (exec.is_cpu_slot ? cpu_busy_s : accel_busy_s) += sim::to_seconds(t);
      Running run;
      run.task = task;
      run.planned_end = sim.now() + t;
      run.span_id = span_id;
      running[exec_id] = std::move(run);
      running[exec_id]->done_event =
          sim.schedule_in(t, [&, exec_id] { on_task_done(exec_id); });
    }
  };

  // --- Fault plan replay ---
  const auto apply_machine_event = [&](const faults::FaultEvent& event) {
    const auto m = static_cast<std::size_t>(event.id);
    if (machine_up[m] == event.up) return;
    machine_up[m] = event.up;
    if (!event.up) {
      for (const auto& e : executors) {
        if (e.machine == m && running[e.id]) kill_running(e.id);
      }
    }
    dispatch();
  };
  const auto apply_net_event = [&](const faults::FaultEvent& event) {
    if (event.target == faults::FaultTarget::kLink) {
      params.fabric->set_link_up(event.id, event.up);
    } else {
      params.fabric->set_node_up(event.id, event.up);
    }
    if (fabric) fabric->handle_topology_change();
  };

  for (std::size_t j = 0; j < state.size(); ++j) {
    sim.schedule_at(state[j].arrival, [&, j] {
      if (observed) {
        obs::TraceRecorder::global().async_begin(
            "sched.job", state[j].graph.name(), j, sim.now(),
            {obs::trace_arg("stages",
                            static_cast<std::uint64_t>(state[j].stages.size()))});
      }
      release_ready_stages(j);
      dispatch();
    });
  }
  if (params.fault_plan != nullptr) {
    for (const auto& event : params.fault_plan->events()) {
      if (event.target == faults::FaultTarget::kMachine) {
        sim.schedule_at(event.at, [&, event] { apply_machine_event(event); });
      } else {
        sim.schedule_at(event.at, [&, event] { apply_net_event(event); });
      }
    }
  }
  sim.run();

  for (std::size_t j = 0; j < state.size(); ++j) {
    auto& js = state[j];
    if (js.finished || js.failed) continue;
    if (params.fault_plan != nullptr) {
      // Starved to death (e.g. every machine down past the last retry):
      // count the job failed rather than pretending the run deadlocked.
      js.failed = true;
      ++result.jobs_failed;
      result.jobs[j].failed = true;
      result.jobs[j].completion = sim.now();
      if (observed) {
        SchedMetrics::get().jobs_failed->add();
        obs::TraceRecorder::global().async_end(
            "sched.job", js.graph.name(), j, sim.now(),
            {obs::trace_arg("outcome", "starved")});
      }
      sched_log().error() << "job " << js.graph.name()
                          << " starved: unfinished when the run drained";
    } else {
      throw std::logic_error{"run_jobs: job did not finish (deadlock?)"};
    }
  }

  result.makespan = 0;
  for (const auto& stats : result.jobs) {
    result.makespan = std::max(result.makespan, stats.completion);
  }
  const double horizon = sim::to_seconds(result.makespan);
  if (horizon > 0.0) {
    result.cpu_utilization =
        cpu_slots == 0 ? 0.0
                       : cpu_busy_s / (static_cast<double>(cpu_slots) * horizon);
    result.accel_utilization =
        accel_slots == 0
            ? 0.0
            : accel_busy_s / (static_cast<double>(accel_slots) * horizon);
  }
  // Cluster idle power over the whole horizon.
  for (const auto& machine : cluster.machines) {
    result.energy += machine.cpu.idle_power * horizon;
    for (const auto& accel : machine.accelerators) {
      result.energy += accel.idle_power * horizon;
    }
  }
  if (fabric) {
    result.flows_started = fabric->started_flows();
    result.flows_completed = fabric->completed_flows();
    result.flows_rerouted = fabric->rerouted_flows();
    result.flows_failed = fabric->failed_flows();
    result.flows_cancelled = fabric->cancelled_flows();
  }
  return result;
}

double RunResult::mean_job_seconds() const {
  if (jobs.empty()) return 0.0;
  double total = 0.0;
  for (const auto& j : jobs) total += sim::to_seconds(j.duration());
  return total / static_cast<double>(jobs.size());
}

double RunResult::goodput() const noexcept {
  const std::uint64_t attempts = tasks_run + tasks_killed_by_failure;
  if (attempts == 0) return 1.0;
  return static_cast<double>(tasks_run) / static_cast<double>(attempts);
}

double RunResult::job_availability() const noexcept {
  if (jobs.empty()) return 1.0;
  return 1.0 - static_cast<double>(jobs_failed) /
                   static_cast<double>(jobs.size());
}

}  // namespace rb::sched
