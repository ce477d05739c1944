#include "dataflow/plan.hpp"

#include <stdexcept>

namespace rb::dataflow {

std::size_t JobGraph::add_stage(StageSpec stage) {
  if (stage.task_count == 0)
    throw std::invalid_argument{"JobGraph::add_stage: zero tasks"};
  for (const auto dep : stage.deps) {
    if (dep >= stages_.size())
      throw std::invalid_argument{"JobGraph::add_stage: dep not yet added"};
  }
  stages_.push_back(std::move(stage));
  return stages_.size() - 1;
}

std::size_t JobGraph::total_tasks() const noexcept {
  std::size_t n = 0;
  for (const auto& s : stages_) n += s.task_count;
  return n;
}

std::vector<std::size_t> JobGraph::runnable(
    const std::vector<bool>& done) const {
  if (done.size() != stages_.size())
    throw std::invalid_argument{"JobGraph::runnable: mask size mismatch"};
  std::vector<std::size_t> out;
  for (std::size_t i = 0; i < stages_.size(); ++i) {
    if (done[i]) continue;
    bool ready = true;
    for (const auto dep : stages_[i].deps) {
      if (!done[dep]) {
        ready = false;
        break;
      }
    }
    if (ready) out.push_back(i);
  }
  return out;
}

JobGraph make_wordcount_job(sim::Bytes input_bytes, std::size_t tasks) {
  if (tasks == 0) throw std::invalid_argument{"make_wordcount_job: tasks == 0"};
  JobGraph job{"wordcount"};
  const double per_task_bytes =
      static_cast<double>(input_bytes) / static_cast<double>(tasks);

  StageSpec map;
  map.name = "tokenize-map";
  map.task_count = tasks;
  map.per_task_kernel = {per_task_bytes * 0.5, per_task_bytes, 0.98};
  map.shuffle_bytes_per_task = static_cast<sim::Bytes>(per_task_bytes * 0.15);
  const auto map_id = job.add_stage(map);

  StageSpec reduce;
  reduce.name = "count-reduce";
  reduce.task_count = tasks;
  reduce.per_task_kernel = {per_task_bytes * 0.05, per_task_bytes * 0.15, 0.95};
  reduce.deps = {map_id};
  job.add_stage(reduce);
  return job;
}

JobGraph make_join_job(sim::Bytes left_bytes, sim::Bytes right_bytes,
                       std::size_t tasks) {
  if (tasks == 0) throw std::invalid_argument{"make_join_job: tasks == 0"};
  JobGraph job{"join"};
  const double lpt = static_cast<double>(left_bytes) / tasks;
  const double rpt = static_cast<double>(right_bytes) / tasks;

  StageSpec lscan{"left-scan", tasks, {lpt * 0.2, lpt, 0.98},
                  static_cast<sim::Bytes>(lpt * 0.6), {}};
  StageSpec rscan{"right-scan", tasks, {rpt * 0.2, rpt, 0.98},
                  static_cast<sim::Bytes>(rpt * 0.6), {}};
  const auto l = job.add_stage(lscan);
  const auto r = job.add_stage(rscan);

  const double jpt = (lpt + rpt) * 0.6;
  StageSpec joinst{"hash-join", tasks, {jpt * 0.8, jpt, 0.95}, 0, {l, r}};
  job.add_stage(joinst);
  return job;
}

JobGraph make_kmeans_job(sim::Bytes points_bytes, int iterations,
                         std::size_t tasks) {
  if (tasks == 0) throw std::invalid_argument{"make_kmeans_job: tasks == 0"};
  if (iterations <= 0)
    throw std::invalid_argument{"make_kmeans_job: iterations must be > 0"};
  JobGraph job{"kmeans"};
  const double ppt = static_cast<double>(points_bytes) / tasks;
  std::vector<std::size_t> deps;
  for (int it = 0; it < iterations; ++it) {
    // Each stage is a block of 10 Lloyd iterations resident on the device:
    // ~32 flops per byte per iteration (k centers x dims), points ship once.
    StageSpec stage{"assign+update-" + std::to_string(it), tasks,
                    {ppt * 320.0, ppt, 0.995, ppt},
                    static_cast<sim::Bytes>(4096), deps};
    deps = {job.add_stage(stage)};
  }
  return job;
}

JobGraph make_stencil_job(sim::Bytes grid_bytes, int sweeps,
                          std::size_t tasks) {
  if (tasks == 0) throw std::invalid_argument{"make_stencil_job: tasks == 0"};
  if (sweeps <= 0)
    throw std::invalid_argument{"make_stencil_job: sweeps must be > 0"};
  JobGraph job{"stencil"};
  const double gpt = static_cast<double>(grid_bytes) / tasks;
  std::vector<std::size_t> deps;
  for (int s = 0; s < sweeps; ++s) {
    StageSpec stage{"sweep-" + std::to_string(s), tasks,
                    {gpt * 8.0, gpt, 0.995},
                    static_cast<sim::Bytes>(gpt * 0.02), deps};
    deps = {job.add_stage(stage)};
  }
  return job;
}

}  // namespace rb::dataflow
