#include "sched/engine.hpp"

#include <gtest/gtest.h>

#include "sched/policies.hpp"

namespace rb::sched {
namespace {

std::vector<JobArrival> single_wordcount(sim::Bytes bytes, std::size_t tasks) {
  std::vector<JobArrival> jobs;
  jobs.push_back(JobArrival{dataflow::make_wordcount_job(bytes, tasks), 0});
  return jobs;
}

TEST(Engine, RejectsEmptyCluster) {
  Cluster empty;
  FifoPolicy fifo;
  EXPECT_THROW(run_jobs(empty, single_wordcount(1 << 20, 2), fifo),
               std::invalid_argument);
}

TEST(Engine, SingleJobCompletes) {
  const auto cluster = make_cpu_cluster(2, 4);
  FifoPolicy fifo;
  const auto result = run_jobs(cluster, single_wordcount(64 * sim::kMiB, 8),
                               fifo);
  ASSERT_EQ(result.jobs.size(), 1u);
  EXPECT_GT(result.jobs[0].completion, 0);
  EXPECT_EQ(result.tasks_run, 16u);  // 8 map + 8 reduce
  EXPECT_GT(result.energy, 0.0);
  EXPECT_EQ(result.makespan, result.jobs[0].completion);
}

TEST(Engine, AllTasksRunExactlyOnce) {
  const auto cluster = make_cpu_cluster(3, 2);
  std::vector<JobArrival> jobs;
  jobs.push_back(
      JobArrival{dataflow::make_join_job(32 * sim::kMiB, 32 * sim::kMiB, 4),
                 0});
  jobs.push_back(
      JobArrival{dataflow::make_kmeans_job(16 * sim::kMiB, 3, 4), 1000});
  FifoPolicy fifo;
  const auto result = run_jobs(cluster, std::move(jobs), fifo);
  EXPECT_EQ(result.tasks_run, 4u * 3u + 4u * 3u);
  for (const auto& j : result.jobs) {
    EXPECT_GE(j.completion, j.arrival);
  }
}

TEST(Engine, StagesRespectDependencies) {
  // A chain job on a single slot: completion ordering is forced, so total
  // duration must be at least the sum of per-stage minimums.
  const auto cluster = make_cpu_cluster(1, 1);
  FifoPolicy fifo;
  std::vector<JobArrival> jobs;
  jobs.push_back(
      JobArrival{dataflow::make_kmeans_job(64 * sim::kMiB, 4, 1), 0});
  const auto chained = run_jobs(cluster, std::move(jobs), fifo);

  std::vector<JobArrival> one;
  one.push_back(
      JobArrival{dataflow::make_kmeans_job(64 * sim::kMiB, 1, 1), 0});
  const auto single = run_jobs(cluster, std::move(one), fifo);
  EXPECT_GT(chained.jobs[0].duration(), single.jobs[0].duration());
}

TEST(Engine, MoreMachinesFasterMakespan) {
  FifoPolicy fifo;
  std::vector<JobArrival> jobs1, jobs2;
  jobs1.push_back(
      JobArrival{dataflow::make_wordcount_job(256 * sim::kMiB, 32), 0});
  jobs2.push_back(
      JobArrival{dataflow::make_wordcount_job(256 * sim::kMiB, 32), 0});
  const auto small = run_jobs(make_cpu_cluster(1, 4), std::move(jobs1), fifo);
  const auto large = run_jobs(make_cpu_cluster(8, 4), std::move(jobs2), fifo);
  EXPECT_LT(large.makespan, small.makespan);
}

TEST(Engine, UtilizationWithinBounds) {
  const auto cluster =
      make_hetero_cluster(4, {node::DeviceKind::kGpu}, 2, 4);
  FifoPolicy fifo;
  const auto result =
      run_jobs(cluster, single_wordcount(128 * sim::kMiB, 16), fifo);
  EXPECT_GE(result.cpu_utilization, 0.0);
  EXPECT_LE(result.cpu_utilization, 1.0 + 1e-9);
  EXPECT_GE(result.accel_utilization, 0.0);
  EXPECT_LE(result.accel_utilization, 1.0 + 1e-9);
}

TEST(Engine, RemoteFetchAccounting) {
  const auto cluster = make_cpu_cluster(4, 2);
  FifoPolicy fifo;  // heterogeneity/locality blind => some remote tasks
  const auto result =
      run_jobs(cluster, single_wordcount(128 * sim::kMiB, 16), fifo);
  EXPECT_LE(result.remote_tasks, result.tasks_run);
}

TEST(Engine, LaterArrivalDelaysCompletion) {
  const auto cluster = make_cpu_cluster(2, 2);
  FifoPolicy fifo;
  std::vector<JobArrival> jobs;
  jobs.push_back(
      JobArrival{dataflow::make_wordcount_job(32 * sim::kMiB, 4),
                 5 * sim::kSecond});
  const auto result = run_jobs(cluster, std::move(jobs), fifo);
  EXPECT_GE(result.jobs[0].completion, 5 * sim::kSecond);
}

TEST(Engine, DeterministicAcrossRuns) {
  const auto cluster =
      make_hetero_cluster(3, {node::DeviceKind::kFpga}, 1, 2);
  HeteroAwarePolicy policy;
  std::vector<JobArrival> a, b;
  for (auto* jobs : {&a, &b}) {
    jobs->push_back(
        JobArrival{dataflow::make_kmeans_job(32 * sim::kMiB, 3, 6), 0});
    jobs->push_back(
        JobArrival{dataflow::make_wordcount_job(64 * sim::kMiB, 8), 100});
  }
  const auto r1 = run_jobs(cluster, std::move(a), policy);
  const auto r2 = run_jobs(cluster, std::move(b), policy);
  EXPECT_EQ(r1.makespan, r2.makespan);
  EXPECT_DOUBLE_EQ(r1.energy, r2.energy);
}

}  // namespace
}  // namespace rb::sched
