// lvm_perfbench: the host-time benchmark of the LVM reproduction.
//
//   lvm_perfbench --workload tpca_rlvm|par_append_1w|durable_txn --seed N
//                 --seconds S --trace 0|1 [--data-dir DIR] [--chrome-trace FILE]
//
// Prints context lines starting with '#', then one JSON object on the last
// line: {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
// metrics are the end-to-end set, with --trace 1 the per-layer set (see
// workloads.h). Exits 1 when a correctness check failed, 2 on bad usage.
#include <malloc.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "perfbench/workloads.h"
#include "src/obs/json.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "lvm_perfbench: %s\n"
               "usage: lvm_perfbench --workload tpca_rlvm|par_append_1w|durable_txn --seed N "
               "--seconds S --trace 0|1 [--data-dir DIR] [--chrome-trace FILE]\n",
               why);
  return 2;
}

std::string Number(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%.17g", value);
  return buffer;
}

// The result line: every metric of the selected table, in table order.
template <size_t N>
std::string ResultJson(const Result& result, const MetricSpec (&table)[N], bool correct) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < N; ++i) {
    auto it = result.metrics.find(table[i].name);
    const double value = it == result.metrics.end() ? 0.0 : it->second.value;
    out += i == 0 ? "" : ", ";
    lvm::obs::AppendJsonString(&out, table[i].name);
    out += ": {\"value\": " + Number(std::isfinite(value) ? value : 0.0) + ", \"unit\": ";
    lvm::obs::AppendJsonString(&out, table[i].unit);
    out += "}";
  }
  out += "}}";
  return out;
}

int Main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return Usage(("missing value for " + flag).c_str());
    }
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      options.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      options.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && options.seconds > 0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      options.trace = std::strcmp(value, "1") == 0;
    } else if (flag == "--data-dir") {
      options.data_dir = value;
    } else if (flag == "--chrome-trace") {
      options.chrome_trace = value;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  if (options.data_dir.empty()) {
    options.data_dir = "perfbench-data";
  }

  // A fixed mmap threshold turns off glibc's adaptive one, so blocks freed
  // with an epoch go back to the kernel and peak_rss_mb is the largest
  // epoch's footprint rather than the allocator's history.
  mallopt(M_MMAP_THRESHOLD, 256 * 1024);
  const Placement placement;
  Result result;
  std::printf("# workload=%s seed=%llu seconds=%g trace=%d\n", workload.c_str(),
              static_cast<unsigned long long>(options.seed), options.seconds,
              options.trace ? 1 : 0);
  std::printf("# build=%s nproc=%ld affinity=%s (each epoch pinned to the next CPU in turn)\n",
              PERFBENCH_BUILD_TYPE, sysconf(_SC_NPROCESSORS_ONLN), placement.Describe().c_str());
  std::fflush(stdout);
  if (workload == "tpca_rlvm") {
    RunTpcaRlvm(options, placement, &result);
  } else if (workload == "par_append_1w") {
    RunParAppend1w(options, placement, &result);
  } else if (workload == "durable_txn") {
    RunDurableTxn(options, placement, &result);
  } else {
    return Usage(("unknown workload '" + workload + "'").c_str());
  }
  result.Set("peak_rss_mb", PeakRssMb(), "MB");

  for (const std::string& note : result.notes) {
    std::printf("# %s\n", note.c_str());
  }
  for (const MetricSpec& spec : kPerLayer) {
    if (!options.trace) {
      break;
    }
    auto it = result.metrics.find(spec.name);
    if (it == result.metrics.end()) {
      std::printf("# %s = 0: this workload bypasses the layer (%s measures it)\n", spec.name,
                  spec.workload);
    } else {
      std::printf("# %s = %.6g %s; moves %s\n", spec.name, it->second.value, spec.unit,
                  spec.moves);
    }
  }
  for (const std::string& failure : result.failures) {
    std::printf("# FAILED: %s\n", failure.c_str());
    std::fprintf(stderr, "lvm_perfbench: FAILED: %s\n", failure.c_str());
  }
  const bool correct = result.failures.empty() && result.attempted > 0;
  const std::string line = options.trace ? ResultJson(result, kPerLayer, correct)
                                         : ResultJson(result, kEndToEnd, correct);
  std::printf("%s\n", line.c_str());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
