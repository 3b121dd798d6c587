// Shared machinery of the host-time benchmark: clocks, a bounded latency
// histogram, CPU placement, the epoch loop every workload runs under, the
// span recorder of the traced run, and the result document.
#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(std::chrono::duration_cast<std::chrono::nanoseconds>(
                                   std::chrono::steady_clock::now().time_since_epoch())
                                   .count());
}

// Log-linear latency histogram in bounded memory: values below 256 are
// exact, larger ones fall into 128 linear sub-buckets per power of two, so a
// percentile (reported at its bucket's midpoint) is within 0.4% of a sample.
class LatencyHistogram {
 public:
  void Record(uint64_t value);
  void Merge(const LatencyHistogram& other);
  uint64_t count() const { return count_; }
  // Nearest-rank percentile, p in (0, 100]; 0 when empty.
  double Percentile(double p) const;

 private:
  static constexpr int kSubBits = 7;
  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

// Median of `values` (0 when empty).
double Median(std::vector<double> values);
// Mean of the three smallest of `values` (all of them if fewer; 0 when
// empty): the best epochs, those a noisy neighbour slowed least.
double BestOf(std::vector<double> values);

// The CPUs of the process's affinity mask at start-up. Each epoch of a run
// is pinned to the next one in turn, so every run samples every vCPU
// equally however fast each is.
class Placement {
 public:
  Placement();
  int num_cpus() const { return static_cast<int>(cpus_.size()); }
  // Pins the calling thread (and threads it creates) to `count` consecutive
  // CPUs starting at slot `epoch`.
  void PinEpoch(uint64_t epoch, int count = 1) const;
  // Restores the calling thread's original mask.
  void Restore() const;
  std::string Describe() const;  // "0-3" style list.

 private:
  std::vector<int> cpus_;
};

// Peak resident set of the process, in MB.
double PeakRssMb();

// --- traced run -----------------------------------------------------------

// One timed interval. `parent` indexes the span's parent within the same
// request (-1 for the request's root); `tid` is 0 for the driving thread.
struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int32_t parent = -1;
  uint32_t tid = 0;
};

// Per-name aggregate over every span recorded.
struct SpanStats {
  LatencyHistogram duration;
  LatencyHistogram self;
  uint64_t count = 0;
  uint64_t total_ns = 0;
};

// Collects spans one request (transaction or round) at a time. Finishing a
// request computes each span's self time — its duration minus the union
// of its children's intervals — and folds it into per-name statistics; the
// spans themselves are kept in memory for the Chrome export up to a cap.
class SpanRecorder {
 public:
  explicit SpanRecorder(size_t keep_spans = 60000) : keep_spans_(keep_spans) {}

  // Records a span of the current request and returns its index there.
  // `name` must be a string literal (spans are aggregated by it).
  int Add(const char* name, uint64_t start_ns, uint64_t end_ns, int parent, uint32_t tid = 0) {
    current_.push_back(Span{name, start_ns, end_ns, parent, tid});
    return static_cast<int>(current_.size()) - 1;
  }
  // Sets the end of a span added with its end still open.
  void Close(int index, uint64_t end_ns) { current_[static_cast<size_t>(index)].end_ns = end_ns; }
  void FinishRequest(uint64_t request_id);

  const SpanStats& stats(const std::string& name) const;
  // Names seen, in first-seen order.
  std::vector<std::string> names() const;
  // Checks that self time plus children's time equals every kept span's
  // duration; returns the number of spans that violate it.
  uint64_t conservation_failures() const { return conservation_failures_; }
  // Writes the kept spans as Chrome trace-event JSON (ui.perfetto.dev).
  // `meta` lands in the document's otherData. Returns false on I/O error or
  // if the document would not be strict JSON.
  bool WriteChromeTrace(const std::string& path,
                        const std::map<std::string, std::string>& meta) const;

 private:
  struct Kept {
    Span span;
    uint64_t self_ns = 0;
    uint64_t request = 0;
    int64_t parent_global = -1;
  };

  SpanStats& StatsFor(const char* name);

  size_t keep_spans_;
  std::vector<Span> current_;
  std::vector<Kept> kept_;
  // A handful of names per workload: a linear scan by pointer beats a map.
  std::vector<std::pair<const char*, SpanStats>> stats_;
  uint64_t conservation_failures_ = 0;
  // Scratch of FinishRequest, kept to avoid allocating per request.
  std::vector<uint32_t> order_;
  std::vector<uint64_t> cursor_;
  std::vector<uint64_t> covered_;
  std::vector<uint64_t> child_sum_;
};

// --- results ----------------------------------------------------------------

struct Metric {
  double value = 0;
  std::string unit;
};

// What one invocation measured and checked.
struct Result {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> failures;  // One line per failed check.
  std::map<std::string, Metric> metrics;
  std::vector<std::string> notes;  // Human-readable context lines.

  void Fail(uint64_t ops, const std::string& why) {
    failed += ops;
    failures.push_back(why);
  }
  void Set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
};

// Run parameters shared by every workload.
struct RunOptions {
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string data_dir;      // Where durable_txn keeps its region files.
  std::string chrome_trace;  // Where the traced run writes its spans.
};

// One workload in the epoch structure every run uses: each epoch builds the
// workload from scratch (timed, giving one setup_s sample), runs a fixed
// amount of work pinned to the next CPU (the timed phase), checks the
// outputs outside any timed interval, and tears down. A run repeats epochs
// until the timed phases add up to the requested seconds and every CPU has
// had the same number of epochs, so memory use and per-epoch state are the
// same whatever the host's speed.
class Epoch {
 public:
  virtual ~Epoch() = default;
  // Builds and warms the workload.
  virtual void Setup() = 0;
  // The timed phase; returns host ns spent in it (excluding in-phase checks).
  virtual uint64_t Run() = 0;
  // Outside the timed phase: checks outputs, recording failures in `result`.
  virtual void Check(Result* result) = 0;
};

// Builds epoch `epoch` of a phase.
using EpochFactory = std::function<std::unique_ptr<Epoch>(uint64_t epoch)>;

// Per-epoch samples of one sequence of epochs. On a shared host, other
// tenants slow whole stretches of a run by 10-40%, so a mean or median over
// epochs moves from run to run with the neighbours' load. The end-to-end
// metrics therefore come from the best epochs: throughput and latency
// percentiles from the three fastest epochs, recovery_s from the three
// fastest recoveries (BestOf). That is the program's speed when the host
// disturbed it least. setup_s is the median set-up.
struct EpochSamples {
  uint64_t epochs = 0;
  uint64_t timed_ns = 0;
  std::vector<double> timed_s;     // Timed phase of each epoch.
  std::vector<double> setup_s;     // Set-up of each epoch.
  std::vector<double> recovery_s;  // Filled by the workloads.

  // Records an epoch's op latencies, keeping those of the three fastest
  // epochs so far (bounded memory).
  void AddLatencies(uint64_t epoch_timed_ns, const LatencyHistogram& latency_ns);
  // The best epochs' throughput; every epoch does `ops_per_epoch` ops.
  double ops_per_s(double ops_per_epoch) const;
  // Sets ops_per_s, op_p50_us, op_p99_us, recovery_s and setup_s.
  void Report(double ops_per_epoch, Result* result) const;

 private:
  std::vector<std::pair<uint64_t, LatencyHistogram>> fastest_;
};

// Runs epochs, each pinned to the next `cpus_per_epoch` CPUs of
// `placement`, until their timed phases add up to `seconds` and every CPU
// has had the same number, or a check fails.
void RunEpochs(const EpochFactory& make, double seconds, const Placement& placement,
               Result* result, EpochSamples* totals, int cpus_per_epoch = 1);

// Seed of epoch `epoch` of a run seeded `seed`.
uint64_t EpochSeed(uint64_t seed, uint64_t epoch);

// Summarizes the traced run's spans in `result`, fails it if a span's self
// time plus its children's time is not its duration, and writes the spans to
// options.chrome_trace (if set).
void ExportTrace(const SpanRecorder& spans, const RunOptions& options,
                 const std::string& workload, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
