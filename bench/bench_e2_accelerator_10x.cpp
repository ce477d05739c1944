// E2 — accelerators deliver "a factor of ten or more" on appropriate
// applications (paper Rec 4), and much less - or a slowdown - on
// data-movement-bound analytics (the ROI uncertainty of Finding 2).
//
// For every accelerated building block (Rec 10) we print the end-to-end
// node-level time on each device (PCIe + launch included) and the best
// choice. Expected shape: compute-dense blocks (inference, k-means) exceed
// 10x on ASIC/GPU; streaming blocks (scan, join) stay on the CPU.
//
// The device table is modeled (roofline profiles); the closing section
// grounds the host column in measurement: the dispatched SIMD kernels
// (accel/simd) are timed against their scalar twins on the running CPU, so
// the "tuned host" baseline every accelerator speedup is quoted against is
// a measured number wherever a SIMD unit exists, falling back to the
// modeled constants otherwise.

#include <cstdio>

#include "accel/offload.hpp"
#include "bench_util.hpp"
#include "simd_measure.hpp"

int main() {
  using namespace rb;
  bench::heading("E2", "Accelerated building blocks: node-level speedups (Recs 4, 10)");

  const auto catalog = node::standard_catalog();
  constexpr std::uint64_t kRows = 8'000'000;

  std::printf("%-16s", "block");
  for (const auto& d : catalog) std::printf(" %14s", d.name.c_str());
  std::printf(" %14s %8s\n", "best", "speedup");

  for (const auto block : accel::all_blocks()) {
    std::printf("%-16s", to_string(block).c_str());
    for (const auto& d : catalog) {
      if (!accel::supports(d.kind, block)) {
        std::printf(" %14s", "-");
        continue;
      }
      const auto path = d.kind == node::DeviceKind::kCpu
                            ? accel::CodePath::kDeviceTuned
                            : accel::CodePath::kDeviceTuned;
      const auto t = accel::block_time(d, block, kRows, path);
      std::printf(" %12.3fms", sim::to_milliseconds(t));
    }
    const auto best = accel::best_device(catalog, block, kRows,
                                         accel::CodePath::kDeviceTuned);
    std::printf(" %14s %7.1fx\n", best.device.name.c_str(),
                best.speedup_vs_host);
  }
  bench::note("paper shape: >=10x on compute-dense analytics blocks;");
  bench::note("PCIe-bound streaming blocks do not benefit (ROI risk).");

  std::printf("\nmeasured tuned-host kernels (dispatched SIMD vs scalar twin):\n");
  const auto print_measured = [](const char* name,
                                 const std::optional<
                                     bench::MeasuredKernel>& m) {
    if (m.has_value()) {
      std::printf("  %-16s %8.4f ms -> %8.4f ms  %6.2fx  (measured, %s)\n",
                  name, m->scalar_ms, m->tuned_ms, m->speedup,
                  accel::simd::to_string(m->isa));
    } else {
      std::printf("  %-16s no SIMD unit usable; modeled CPU constants apply\n",
                  name);
    }
  };
  print_measured("select-scan", bench::measure_select_scan(16384));
  print_measured("hash-join probe", bench::measure_join_probe(16384));
  bench::note("the tuned-CPU baseline above is real silicon wherever a SIMD");
  bench::note("unit exists - accelerator ROI is quoted against it, not a model.");
  return 0;
}
