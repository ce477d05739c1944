// Ablations of the modelling choices DESIGN.md calls out:
//
//  A1 — fabric rate allocation: max-min fair (progressive filling) vs the
//       naive per-link equal split. Equal split strands bandwidth whenever a
//       flow is bottlenecked elsewhere, inflating shuffle makespans — this
//       quantifies why the simulator uses max-min.
//  A2 — offload batching: the per-offload launch latency means tiny batches
//       never amortize; the sweep locates the break-even batch size per
//       device (the practical side of Rec 10's "partially hardware-
//       accelerated implementations").

#include <cstdio>

#include "accel/offload.hpp"
#include "bench_util.hpp"
#include "net/coflow.hpp"
#include "net/fabric.hpp"

int main() {
  using namespace rb;
  bench::heading("A1", "Fabric ablation: max-min fair vs per-link equal split");

  // Symmetric all-to-all gives both schemes identical rates; the gap shows
  // on asymmetric traffic: an incast pins some flows far below their equal
  // share on their first hop, and only max-min hands the slack to the
  // co-located local flows.
  const auto run_asymmetric = [](net::RateAllocation allocation) {
    net::FabricParams params;
    const auto topo = net::make_leaf_spine(2, 3, 3, params);
    sim::Simulator sim;
    const net::Router router{topo};
    net::FlowSimulator fabric{sim, topo, router, allocation};
    const auto hosts = topo.nodes_of_kind(net::NodeKind::kHost);
    sim::SimTime makespan = 0;
    const auto track = [&makespan](const net::FlowRecord& r) {
      makespan = std::max(makespan, r.finish);
    };
    // Incast: hosts 1..5 each send 32 MiB to host 0 ...
    for (std::size_t i = 1; i <= 5; ++i) {
      fabric.start_flow(hosts[i], hosts[0], 32 * sim::kMiB, track);
    }
    // ... while each incast source also serves a local 32 MiB transfer to
    // its leaf neighbor (indices chosen within the same leaf of 3 hosts).
    for (const auto& [src, dst] :
         {std::pair<std::size_t, std::size_t>{1, 2},
          std::pair<std::size_t, std::size_t>{3, 4},
          std::pair<std::size_t, std::size_t>{4, 5},
          std::pair<std::size_t, std::size_t>{6, 7},
          std::pair<std::size_t, std::size_t>{7, 8}}) {
      fabric.start_flow(hosts[src], hosts[dst], 32 * sim::kMiB, track);
    }
    sim.run();
    return std::pair{makespan, fabric.fct_seconds().mean()};
  };

  const auto [mm_makespan, mm_mean] =
      run_asymmetric(net::RateAllocation::kMaxMinFair);
  const auto [eq_makespan, eq_mean] =
      run_asymmetric(net::RateAllocation::kEqualSharePerLink);
  std::printf("%-14s %14s %14s\n", "allocator", "makespan(s)", "mean FCT(s)");
  std::printf("%-14s %14.3f %14.3f\n", "max-min", sim::to_seconds(mm_makespan),
              mm_mean);
  std::printf("%-14s %14.3f %14.3f\n", "equal-split",
              sim::to_seconds(eq_makespan), eq_mean);
  std::printf("equal-split penalty: %.2fx makespan, %.2fx mean FCT\n",
              static_cast<double>(eq_makespan) /
                  static_cast<double>(mm_makespan),
              eq_mean / mm_mean);
  bench::note("equal split never beats max-min; the gap is the bandwidth");
  bench::note("stranded next to incast-bottlenecked flows.");

  bench::heading("A2", "Offload ablation: batch size vs launch amortization");
  const auto gpu = node::find_device(node::DeviceKind::kGpu);
  const auto asic = node::find_device(node::DeviceKind::kAsic);
  const auto cpu = node::find_device(node::DeviceKind::kCpu);
  constexpr std::uint64_t kTotalRows = 1 << 22;

  std::printf("%-12s %14s %14s %14s\n", "batch rows", "cpu (ms)",
              "gpu (ms)", "asic (ms)");
  for (std::uint64_t batch = 1 << 8; batch <= kTotalRows; batch <<= 3) {
    const std::uint64_t batches = kTotalRows / batch;
    const auto total = [&](const node::DeviceModel& device,
                           accel::BlockKind block) {
      if (!accel::supports(device.kind, block)) return -1.0;
      return sim::to_milliseconds(
          static_cast<sim::SimTime>(batches) *
          accel::block_time(device, block, batch,
                            accel::CodePath::kDeviceTuned));
    };
    std::printf("%-12llu %14.2f %14.2f %14.2f\n",
                static_cast<unsigned long long>(batch),
                total(cpu, accel::BlockKind::kDnnInference),
                total(gpu, accel::BlockKind::kDnnInference),
                total(asic, accel::BlockKind::kDnnInference));
  }
  bench::note("below the break-even batch, launch latency dominates and the");
  bench::note("CPU wins; above it the accelerator's roofline takes over.");

  bench::heading("A3", "Coflow scheduling: TCP-fair vs smallest-bottleneck-first");
  {
    const auto topo = net::make_star(8);
    const auto hosts = topo.nodes_of_kind(net::NodeKind::kHost);
    // Four shuffles of very different sizes contending on the same hosts.
    std::vector<net::Coflow> coflows;
    const sim::Bytes sizes[] = {2 * sim::kMiB, 8 * sim::kMiB, 32 * sim::kMiB,
                                128 * sim::kMiB};
    int index = 0;
    for (const auto bytes : sizes) {
      net::Coflow coflow;
      coflow.name = "shuffle-" + std::to_string(index++);
      for (std::size_t s = 0; s < 2; ++s) {
        for (std::size_t d = 0; d < 2; ++d) {
          coflow.flows.push_back(
              net::CoflowFlow{hosts[s], hosts[2 + d], bytes});
        }
      }
      coflows.push_back(std::move(coflow));
    }
    const auto fair = net::run_coflows(
        topo, coflows, net::CoflowSchedule::kConcurrentFairSharing);
    const auto sebf = net::run_coflows(
        topo, coflows, net::CoflowSchedule::kSmallestBottleneckFirst);
    std::printf("%-12s %16s %16s\n", "coflow", "fair CCT(s)", "sebf CCT(s)");
    for (std::size_t c = 0; c < coflows.size(); ++c) {
      std::printf("%-12s %16.3f %16.3f\n", fair.cct_seconds[c].first.c_str(),
                  fair.cct_seconds[c].second, sebf.cct_seconds[c].second);
    }
    std::printf("average CCT: fair %.3f s vs sebf %.3f s (%.2fx better)\n",
                fair.avg_cct_seconds, sebf.avg_cct_seconds,
                fair.avg_cct_seconds / sebf.avg_cct_seconds);
  }
  bench::note("scheduling whole shuffles (not flows) cuts average coflow");
  bench::note("completion time - the Big-Data-aware network software case.");
  return 0;
}
