#pragma once
// Event-driven cluster scheduling engine.
//
// Jobs (dataflow::JobGraph) arrive at given times; their stages unlock as
// dependencies finish; each task runs on one executor slot (a CPU slot or an
// accelerator). The pluggable Policy decides, whenever slots are free and
// tasks are ready, which (task, executor) pair to dispatch next — this is
// the experiment harness for Rec 11's "dynamic scheduling and resource
// allocation strategies".
//
// Fault tolerance: EngineParams can carry a faults::FaultPlan. kMachine
// events kill every task running on that machine (each is re-queued with
// capped exponential backoff, up to max_attempts tries; a task exhausting
// its attempts fails its *job*, never the whole run). kLink/kNode events
// require a fabric topology (EngineParams::fabric); remote input fetches
// then travel as real flows which can be rerouted or fail mid-flight,
// feeding the RunResult's flow counters.

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "dataflow/plan.hpp"
#include "faults/plan.hpp"
#include "net/topology.hpp"
#include "sched/cluster.hpp"
#include "sim/simulator.hpp"
#include "sim/stats.hpp"

namespace rb::sched {

struct JobArrival {
  dataflow::JobGraph graph;
  sim::SimTime arrival = 0;
};

/// A dispatchable task instance.
struct ReadyTask {
  std::size_t job = 0;
  std::size_t stage = 0;
  std::size_t index = 0;                  // task index within the stage
  const dataflow::StageSpec* spec = nullptr;
  std::size_t locality_machine = 0;       // machine holding its input
  sim::SimTime ready_since = 0;
  int attempt = 1;                        // 1 = first try
};

/// One executor slot.
struct Executor {
  std::size_t id = 0;
  std::size_t machine = 0;
  const node::DeviceModel* device = nullptr;  // points into the Cluster
  bool is_cpu_slot = true;
  bool busy = false;
};

class Policy;

struct EngineParams {
  /// Optional fault schedule. kMachine events target cluster machines by
  /// index; kLink/kNode events are applied to `fabric` (required for them).
  const faults::FaultPlan* fault_plan = nullptr;
  /// Total tries a task gets before its job is marked failed.
  int max_attempts = 3;
  /// Re-queue delay after a kill: backoff * 2^(attempt-1), capped below.
  sim::SimTime retry_backoff = 10 * sim::kMillisecond;
  sim::SimTime retry_backoff_cap = 10 * sim::kSecond;

  /// Optional datacenter fabric: machine i maps to the i-th host node
  /// (mod host count) and remote input fetches become simulated flows that
  /// contend, reroute around failures, and can fail. When null, remote
  /// fetch stays the scalar bytes/bandwidth model. Mutable because fault
  /// events flip its link/node state during the run.
  net::Topology* fabric = nullptr;
};

struct JobStats {
  std::string name;
  sim::SimTime arrival = 0;
  sim::SimTime completion = 0;  // failure time for failed jobs
  bool failed = false;
  sim::SimTime duration() const noexcept { return completion - arrival; }
};

struct RunResult {
  std::vector<JobStats> jobs;
  sim::SimTime makespan = 0;
  sim::Joules energy = 0.0;
  double cpu_utilization = 0.0;    // busy-slot-time / total-slot-time
  double accel_utilization = 0.0;
  std::uint64_t tasks_run = 0;     // task executions that completed
  std::uint64_t remote_tasks = 0;  // tasks that fetched input remotely

  // --- Fault accounting (all zero when no plan is supplied) ---
  std::uint64_t tasks_dispatched = 0;        // first-attempt dispatches
  std::uint64_t tasks_retried = 0;           // re-dispatches after a kill
  std::uint64_t tasks_killed_by_failure = 0; // machine or fetch-flow death
  std::uint64_t jobs_failed = 0;
  std::uint64_t flows_started = 0;   // fetch flows, when fabric is attached
  std::uint64_t flows_completed = 0;
  std::uint64_t flows_rerouted = 0;
  std::uint64_t flows_failed = 0;
  std::uint64_t flows_cancelled = 0;

  double mean_job_seconds() const;
  /// Fraction of task executions that produced useful work.
  double goodput() const noexcept;
  /// Fraction of jobs that completed despite failures.
  double job_availability() const noexcept;
};

/// Run `jobs` on `cluster` under `policy`. Deterministic for fixed inputs
/// (including the fault plan and its seed).
RunResult run_jobs(const Cluster& cluster, std::vector<JobArrival> jobs,
                   Policy& policy, const EngineParams& params = {});

/// Scheduling policy: given ready tasks and idle executors, choose a pair to
/// dispatch (indices into the two spans), or nullopt to leave slots idle.
/// Called repeatedly until it declines or resources run out.
class Policy {
 public:
  virtual ~Policy() = default;
  virtual std::string name() const = 0;

  struct View {
    const Cluster* cluster = nullptr;
    sim::SimTime now = 0;
    /// Per-job count of currently running tasks (for fairness policies).
    const std::vector<std::size_t>* running_per_job = nullptr;
    /// Per-job running tasks split by slot class (for DRF).
    const std::vector<std::size_t>* running_cpu_per_job = nullptr;
    const std::vector<std::size_t>* running_accel_per_job = nullptr;
    std::size_t total_cpu_slots = 0;
    std::size_t total_accel_slots = 0;
    /// Estimated run time of `task` on `exec` including any remote fetch.
    std::function<sim::SimTime(const ReadyTask&, const Executor&)> eta;
    /// Estimated energy of `task` on `exec`.
    std::function<sim::Joules(const ReadyTask&, const Executor&)> energy;
  };

  virtual std::optional<std::pair<std::size_t, std::size_t>> choose(
      const std::vector<ReadyTask>& ready,
      const std::vector<const Executor*>& idle, const View& view) = 0;
};

}  // namespace rb::sched
