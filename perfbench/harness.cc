#include "perfbench/harness.h"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "src/obs/json.h"

namespace perfbench {

void LatencyHistogram::Record(uint64_t value) {
  const int width = std::bit_width(value);
  const int shift = width > kSubBits + 1 ? width - (kSubBits + 1) : 0;
  const size_t index = (static_cast<size_t>(shift) << kSubBits) + (value >> shift);
  if (index >= buckets_.size()) {
    buckets_.resize(index + 1, 0);
  }
  ++buckets_[index];
  ++count_;
}

void LatencyHistogram::Merge(const LatencyHistogram& other) {
  if (other.buckets_.size() > buckets_.size()) {
    buckets_.resize(other.buckets_.size(), 0);
  }
  for (size_t i = 0; i < other.buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
  count_ += other.count_;
}

double LatencyHistogram::Percentile(double p) const {
  if (count_ == 0) {
    return 0;
  }
  const auto rank = std::max<uint64_t>(
      1, static_cast<uint64_t>(std::ceil(p / 100.0 * static_cast<double>(count_))));
  uint64_t seen = 0;
  for (size_t index = 0; index < buckets_.size(); ++index) {
    seen += buckets_[index];
    if (seen >= rank) {
      // Invert Record(): index = shift * 128 + top, top in [128, 256) once
      // shift > 0; the bucket holds [top << shift, (top + 1) << shift).
      const size_t sub = size_t{1} << kSubBits;
      const int shift = index < 2 * sub ? 0 : static_cast<int>(index / sub) - 1;
      const double top = static_cast<double>(index - (static_cast<size_t>(shift) << kSubBits));
      const double lo = top * static_cast<double>(uint64_t{1} << shift);
      const double width = static_cast<double>(uint64_t{1} << shift);
      return lo + (width - 1) / 2;
    }
  }
  return 0;
}

double Median(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

Placement::Placement() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &set)) {
        cpus_.push_back(cpu);
      }
    }
  }
  if (cpus_.empty()) {
    cpus_.push_back(0);
  }
}

void Placement::PinEpoch(uint64_t epoch, int count) const {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int i = 0; i < count; ++i) {
    CPU_SET(cpus_[(epoch + static_cast<uint64_t>(i)) % cpus_.size()], &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

void Placement::Restore() const {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int cpu : cpus_) {
    CPU_SET(cpu, &set);
  }
  sched_setaffinity(0, sizeof(set), &set);
}

std::string Placement::Describe() const {
  std::string out;
  for (size_t i = 0; i < cpus_.size();) {
    size_t j = i;
    while (j + 1 < cpus_.size() && cpus_[j + 1] == cpus_[j] + 1) {
      ++j;
    }
    if (!out.empty()) {
      out += ",";
    }
    out += std::to_string(cpus_[i]);
    if (j > i) {
      out += "-";
      out += std::to_string(cpus_[j]);
    }
    i = j + 1;
  }
  return out;
}

double PeakRssMb() {
  struct rusage usage = {};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB.
}

SpanStats& SpanRecorder::StatsFor(const char* name) {
  for (auto& [key, stats] : stats_) {
    if (key == name || std::strcmp(key, name) == 0) {
      return stats;
    }
  }
  stats_.emplace_back(name, SpanStats{});
  return stats_.back().second;
}

void SpanRecorder::FinishRequest(uint64_t request_id) {
  const size_t n = current_.size();
  // Visit spans by start time, so each parent's children arrive in order
  // and the union of their intervals is a running sweep.
  order_.resize(n);
  for (size_t i = 0; i < n; ++i) {
    order_[i] = static_cast<uint32_t>(i);
  }
  std::stable_sort(order_.begin(), order_.end(), [this](uint32_t a, uint32_t b) {
    return current_[a].start_ns < current_[b].start_ns;
  });
  cursor_.assign(n, 0);
  covered_.assign(n, 0);
  child_sum_.assign(n, 0);
  for (uint32_t i : order_) {
    const Span& span = current_[i];
    if (span.parent < 0) {
      continue;
    }
    const auto p = static_cast<size_t>(span.parent);
    const Span& parent = current_[p];
    const uint64_t lo = std::max({span.start_ns, parent.start_ns, cursor_[p]});
    const uint64_t hi = std::min(span.end_ns, parent.end_ns);
    if (hi > lo) {
      covered_[p] += hi - lo;
      cursor_[p] = hi;
    }
    child_sum_[p] += span.end_ns - span.start_ns;
  }
  const int64_t base = static_cast<int64_t>(kept_.size());
  const bool keep = kept_.size() + n <= keep_spans_;
  for (size_t i = 0; i < n; ++i) {
    const Span& span = current_[i];
    const uint64_t duration = span.end_ns - span.start_ns;
    const uint64_t self = duration - std::min(duration, covered_[i]);
    // Holds when children lie inside their parent and do not overlap.
    if (self + child_sum_[i] != duration) {
      ++conservation_failures_;
    }
    SpanStats& stats = StatsFor(span.name);
    stats.duration.Record(duration);
    stats.self.Record(self);
    ++stats.count;
    stats.total_ns += duration;
    if (keep) {
      kept_.push_back(Kept{span, self, request_id, span.parent < 0 ? -1 : base + span.parent});
    }
  }
  current_.clear();
}

const SpanStats& SpanRecorder::stats(const std::string& name) const {
  static const SpanStats kEmpty;
  for (const auto& [key, stats] : stats_) {
    if (name == key) {
      return stats;
    }
  }
  return kEmpty;
}

std::vector<std::string> SpanRecorder::names() const {
  std::vector<std::string> out;
  for (const auto& entry : stats_) {
    out.emplace_back(entry.first);
  }
  return out;
}

bool SpanRecorder::WriteChromeTrace(const std::string& path,
                                    const std::map<std::string, std::string>& meta) const {
  using lvm::obs::AppendJsonString;
  using lvm::obs::JsonNumber;
  uint64_t origin = kept_.empty() ? 0 : kept_.front().span.start_ns;
  for (const Kept& k : kept_) {
    origin = std::min(origin, k.span.start_ns);
  }
  std::string out = "{\"displayTimeUnit\":\"ns\",\"otherData\":{";
  bool first = true;
  for (const auto& [key, value] : meta) {
    out += first ? "" : ",";
    first = false;
    AppendJsonString(&out, key);
    out += ":";
    AppendJsonString(&out, value);
  }
  out += "},\"traceEvents\":[";
  out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":0,"
         "\"args\":{\"name\":\"lvm_perfbench\"}}";
  for (size_t i = 0; i < kept_.size(); ++i) {
    const Kept& k = kept_[i];
    const std::string name = k.span.name;
    out += ",{\"name\":";
    AppendJsonString(&out, name);
    out += ",\"cat\":";
    AppendJsonString(&out, name.substr(0, name.find('.')));
    out += ",\"ph\":\"X\",\"pid\":1,\"tid\":";
    out += std::to_string(k.span.tid);
    out += ",\"ts\":";
    out += JsonNumber(static_cast<double>(k.span.start_ns - origin) / 1000.0);
    out += ",\"dur\":";
    out += JsonNumber(static_cast<double>(k.span.end_ns - k.span.start_ns) / 1000.0);
    out += ",\"args\":{\"request\":";
    out += JsonNumber(k.request);
    out += ",\"span\":";
    out += JsonNumber(static_cast<uint64_t>(i));
    out += ",\"parent\":";
    out += JsonNumber(k.parent_global);
    out += ",\"self_us\":";
    out += JsonNumber(static_cast<double>(k.self_ns) / 1000.0);
    out += "}}";
  }
  out += "]}\n";
  if (!lvm::obs::ValidateJson(out)) {
    return false;
  }
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  file << out;
  return static_cast<bool>(file);
}

void RunEpochs(const EpochFactory& make, double seconds, const Placement& placement,
               Result* result, EpochSamples* totals, int cpus_per_epoch) {
  const auto budget_ns = static_cast<uint64_t>(seconds * 1e9);
  while ((totals->timed_ns < budget_ns ||
          totals->epochs % static_cast<uint64_t>(placement.num_cpus()) != 0) &&
         result->failures.empty()) {
    placement.PinEpoch(totals->epochs, cpus_per_epoch);
    const uint64_t start = NowNs();
    std::unique_ptr<Epoch> epoch = make(totals->epochs);
    epoch->Setup();
    totals->setup_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    const uint64_t timed_ns = epoch->Run();
    totals->timed_ns += timed_ns;
    totals->timed_s.push_back(static_cast<double>(timed_ns) * 1e-9);
    epoch->Check(result);
    ++totals->epochs;
  }
  placement.Restore();
}

double BestOf(std::vector<double> values) {
  if (values.empty()) {
    return 0;
  }
  const size_t k = std::min<size_t>(3, values.size());
  std::partial_sort(values.begin(), values.begin() + static_cast<std::ptrdiff_t>(k), values.end());
  double sum = 0;
  for (size_t i = 0; i < k; ++i) {
    sum += values[i];
  }
  return sum / static_cast<double>(k);
}

double EpochSamples::ops_per_s(double ops_per_epoch) const {
  return ops_per_epoch / BestOf(timed_s);
}

void EpochSamples::AddLatencies(uint64_t epoch_timed_ns, const LatencyHistogram& latency_ns) {
  fastest_.emplace_back(epoch_timed_ns, latency_ns);
  std::sort(fastest_.begin(), fastest_.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  if (fastest_.size() > 3) {
    fastest_.pop_back();
  }
}

void EpochSamples::Report(double ops_per_epoch, Result* result) const {
  LatencyHistogram latency_ns;
  for (const auto& entry : fastest_) {
    latency_ns.Merge(entry.second);
  }
  result->Set("ops_per_s", ops_per_s(ops_per_epoch), "ops/s");
  result->Set("op_p50_us", latency_ns.Percentile(50) / 1e3, "us");
  result->Set("op_p99_us", latency_ns.Percentile(99) / 1e3, "us");
  result->Set("recovery_s", BestOf(recovery_s), "s");
  result->Set("setup_s", Median(setup_s), "s");
}

uint64_t EpochSeed(uint64_t seed, uint64_t epoch) {
  // splitmix64 over the pair, so neighbouring seeds give unrelated inputs.
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + epoch + 1;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

void ExportTrace(const SpanRecorder& spans, const RunOptions& options,
                 const std::string& workload, Result* result) {
  for (const std::string& name : spans.names()) {
    const SpanStats& stats = spans.stats(name);
    result->notes.push_back("span " + name + ": n=" + std::to_string(stats.count) +
                            " p50_ns=" + std::to_string(stats.duration.Percentile(50)) +
                            " self_p50_ns=" + std::to_string(stats.self.Percentile(50)));
  }
  if (spans.conservation_failures() != 0) {
    result->Fail(0, std::to_string(spans.conservation_failures()) +
                        " spans whose self time plus children's time is not their duration");
  }
  if (options.chrome_trace.empty()) {
    return;
  }
  const std::map<std::string, std::string> meta = {
      {"workload", workload},
      {"seed", std::to_string(options.seed)},
      {"build", PERFBENCH_BUILD_TYPE},
  };
  if (spans.WriteChromeTrace(options.chrome_trace, meta)) {
    result->notes.push_back("chrome trace: " + options.chrome_trace);
  } else {
    result->Fail(0, "could not write the chrome trace " + options.chrome_trace);
  }
}

}  // namespace perfbench
