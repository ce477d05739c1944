// E8 — "OpenCL only ensures correctness of the computation on each
// platform. It does not ensure that the computation has been optimized"
// (paper Sec IV.C.3; Rec 6 funds FPGA programmability to close the gap).
//
// The same kernels run on each device via (a) a generic portable code path
// and (b) a device-tuned path. Expected shape: the tuned/generic gap widens
// with device specialization — modest on CPU, ~2x on GPU, >5x on FPGA.
//
// The CPU rows for select-scan and hash-join are MEASURED, not modeled:
// the generic path is the scalar kernel, the tuned path the dispatched
// SIMD kernel (accel/simd) timed on the running CPU. Hosts without a SIMD
// unit fall back to the modeled path-efficiency constants, marked as such.

#include <cstdio>
#include <optional>

#include "accel/offload.hpp"
#include "bench_util.hpp"
#include "simd_measure.hpp"

int main() {
  using namespace rb;
  bench::heading("E8", "Performance portability: generic vs device-tuned kernels");

  constexpr std::uint64_t kRows = 4'000'000;
  const auto devices = {node::DeviceKind::kCpu, node::DeviceKind::kGpu,
                        node::DeviceKind::kFpga};

  // Measured CPU gaps (scalar twin = generic portable, dispatched SIMD =
  // device tuned). nullopt on scalar-only hosts -> modeled fallback.
  const auto scan = bench::measure_select_scan(16384);
  const auto probe = bench::measure_join_probe(16384);

  for (const auto block :
       {accel::BlockKind::kSelectScan, accel::BlockKind::kHashJoin,
        accel::BlockKind::kKMeans, accel::BlockKind::kDnnInference}) {
    std::printf("\n-- %s --\n", to_string(block).c_str());
    std::printf("%-10s %14s %14s %10s\n", "device", "generic(ms)",
                "tuned(ms)", "gap");
    for (const auto kind : devices) {
      const auto device = node::find_device(kind);
      if (!accel::supports(kind, block)) continue;
      const std::optional<bench::MeasuredKernel>* measured = nullptr;
      if (kind == node::DeviceKind::kCpu) {
        if (block == accel::BlockKind::kSelectScan) measured = &scan;
        if (block == accel::BlockKind::kHashJoin) measured = &probe;
      }
      if (measured != nullptr && measured->has_value()) {
        const auto& m = **measured;
        std::printf("%-10s %14.4f %14.4f %9.2fx  (measured, %s)\n",
                    node::to_string(kind).c_str(), m.scalar_ms, m.tuned_ms,
                    m.speedup, accel::simd::to_string(m.isa));
        continue;
      }
      const auto generic = accel::block_time(
          device, block, kRows, accel::CodePath::kGenericPortable);
      const auto tuned = accel::block_time(device, block, kRows,
                                           accel::CodePath::kDeviceTuned);
      std::printf("%-10s %14.3f %14.3f %9.2fx\n",
                  node::to_string(kind).c_str(),
                  sim::to_milliseconds(generic), sim::to_milliseconds(tuned),
                  static_cast<double>(generic) / static_cast<double>(tuned));
    }
  }
  bench::note("paper shape: portable abstractions are correct everywhere but");
  bench::note("leave most of an FPGA's roofline unused - the Rec 6 gap.");
  bench::note("CPU scan/join rows are measured on this host's SIMD unit; the");
  bench::note("same portable-vs-tuned gap the paper argues, on real silicon.");
  return 0;
}
