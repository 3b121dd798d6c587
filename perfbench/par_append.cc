// par_append_1w: one ParallelEngine worker in kParallel mode doing paced
// logged writes into a private, pre-faulted region. Loads the par shard
// path (LogShard ring push/retire, batched segment append), the
// free-running Bus and the concurrent L2 stripes; bypasses HardwareLogger,
// rvm and deferred copy. The timed phase is a sequence of rounds, each
// building an engine, running it, checking the shard log and truncating it
// (one long run would exhaust the simulated frames). The traced run adds a
// two-worker phase that measures what a second worker costs.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/base/rng.h"
#include "src/lvm/log_reader.h"
#include "src/lvm/lvm_system.h"
#include "src/par/engine.h"

namespace perfbench {
namespace {

constexpr uint32_t kWritesPerRound = 51200;
constexpr uint32_t kRoundsPerEpoch = 20;
// Slower than the 27-cycle shard service rate, so no overloads occur.
constexpr uint32_t kComputeCycles = 32;
constexpr uint32_t kRegionWords = 4096;  // A 16 KB private region per worker.
constexpr uint32_t kWordsPerPage = lvm::kPageSize / 4;
// Op latency is the host time of a batch of this many consecutive writes
// (eight shard batches), stamped by the worker.
constexpr uint32_t kBatchWrites = 256;
// Traced run: one sim.write span per this many writes.
constexpr uint32_t kWriteSample = 64;

struct Totals {
  uint64_t rounds = 0;
  uint64_t writes = 0;  // Per worker.
  EpochSamples samples;
  uint64_t records = 0;
  uint64_t batches = 0;
  uint64_t ring_full_stalls = 0;
  uint64_t overload_events = 0;
  uint64_t bus_transactions = 0;
  uint64_t stripe_contention = 0;
  uint64_t run_ns = 0;  // Traced: time in par.run spans.
  SpanRecorder spans;
};

// One worker's private region and log, and what its step function stamps.
struct Lane {
  lvm::StdSegment* segment = nullptr;
  lvm::StdSegment* recovered = nullptr;  // Rolled forward from the log.
  lvm::LogSegment* log = nullptr;
  lvm::VirtAddr base = 0;
  std::vector<lvm::PhysAddr> frames;  // Region page -> frame.
  // Per round, written by the worker thread and read after Join.
  uint32_t salt = 0;
  bool timed = false;
  bool sample_writes = false;
  uint64_t batch_start_ns = 0;
  uint64_t last_step_ns = 0;
  LatencyHistogram batch_ns;                          // Per epoch.
  std::vector<std::pair<uint64_t, uint64_t>> writes;  // Sampled Cpu::Write intervals.
};

class ParEpoch final : public Epoch {
 public:
  ParEpoch(Totals* totals, int workers, uint64_t seed, bool traced)
      : totals_(totals), workers_(workers), seed_(seed), traced_(traced), rng_(seed) {}

  void Setup() override {
    lvm::LvmConfig config;
    config.num_cpus = workers_;
    config.seed = seed_;
    system_ = std::make_unique<lvm::LvmSystem>(config);
    lvm::AddressSpace* as = system_->CreateAddressSpace();
    lanes_.resize(static_cast<size_t>(workers_));
    for (int w = 0; w < workers_; ++w) {
      Lane& lane = lanes_[static_cast<size_t>(w)];
      lane.segment = system_->CreateSegment(kRegionWords * 4);
      lane.recovered = system_->CreateSegment(kRegionWords * 4);
      lvm::Region* region = system_->CreateRegion(lane.segment);
      lane.base = as->BindRegion(region);
      lane.log = system_->CreateLogSegment(8);
      system_->AttachLog(region, lane.log);
      system_->Activate(as, w);
      system_->TouchRegion(&system_->cpu(w), region);
      for (uint32_t page = 0; page < kRegionWords / kWordsPerPage; ++page) {
        lane.frames.push_back(as->FindPte(lane.base + page * lvm::kPageSize)->frame);
        system_->EnsureSegmentPage(lane.recovered, page);
      }
      lane.writes.reserve(kWritesPerRound / kWriteSample + 1);
    }
    // One untimed round grows each log segment to a round's size, so timed
    // rounds reuse its frames.
    RunRound(/*timed=*/false, /*last=*/false);
  }

  uint64_t Run() override {
    uint64_t timed_ns = 0;
    const lvm::obs::Snapshot before = system_->metrics().TakeSnapshot();
    for (uint32_t r = 0; r < kRoundsPerEpoch; ++r) {
      timed_ns += RunRound(/*timed=*/true, /*last=*/r + 1 == kRoundsPerEpoch);
    }
    const lvm::obs::Snapshot delta = system_->metrics().TakeSnapshot().Delta(before);
    LatencyHistogram batch_ns;
    for (const Lane& lane : lanes_) {
      batch_ns.Merge(lane.batch_ns);
    }
    totals_->samples.AddLatencies(timed_ns, batch_ns);
    totals_->bus_transactions += delta.counter("bus.transactions");
    totals_->stripe_contention += delta.counter("l2.stripe_contention");
    return timed_ns;
  }

  // Counts the epoch's writes as failed once, whatever number of checks
  // failed.
  void Check(Result* result) override {
    if (!failures_.empty()) {
      result->Fail(uint64_t{kWritesPerRound} * kRoundsPerEpoch,
                   failures_.front() + " (" + std::to_string(failures_.size()) +
                       " failed checks in this epoch)");
    }
  }

 private:
  // Runs one round; returns its host ns, excluding the checks.
  uint64_t RunRound(bool timed, bool last) {
    for (Lane& lane : lanes_) {
      lane.salt = static_cast<uint32_t>(rng_.Next64());
      lane.timed = timed;
      lane.sample_writes = traced_ && timed;
      lane.writes.clear();
    }
    const uint64_t t0 = NowNs();
    auto engine = std::make_unique<lvm::par::ParallelEngine>(system_.get(),
                                                             lvm::par::EngineConfig{});
    for (Lane& lane : lanes_) {
      Lane* l = &lane;
      engine->AddWorker(lane.log, [l](lvm::Cpu& cpu, uint64_t step) {
        if (step % kBatchWrites == 0) {
          const uint64_t now = NowNs();
          if (step != 0 && l->timed) {
            l->batch_ns.Record(now - l->batch_start_ns);
          }
          l->batch_start_ns = now;
        }
        const lvm::VirtAddr va = l->base + 4 * static_cast<uint32_t>(step % kRegionWords);
        const uint32_t value = l->salt + static_cast<uint32_t>(step);
        if (l->sample_writes && step % kWriteSample == 0) {
          const uint64_t start = NowNs();
          cpu.Write(va, value);
          l->writes.emplace_back(start, NowNs());
        } else {
          cpu.Write(va, value);
        }
        cpu.Compute(kComputeCycles);
        if (step + 1 < kWritesPerRound) {
          return true;
        }
        l->last_step_ns = NowNs();
        if (l->timed) {
          l->batch_ns.Record(l->last_step_ns - l->batch_start_ns);
        }
        return false;
      });
    }
    const uint64_t t1 = NowNs();
    engine->Start();
    const uint64_t t2 = NowNs();
    engine->Join();
    const uint64_t t3 = NowNs();
    for (int w = 0; w < workers_; ++w) {
      const lvm::par::LogShard* shard = engine->shard(w);
      if (timed) {
        totals_->records += shard->records_appended();
        totals_->batches += shard->batches();
        totals_->ring_full_stalls += shard->ring_full_stalls();
      }
      CheckLog(lanes_[static_cast<size_t>(w)], timed && last && w == 0);
    }
    if (timed) {
      totals_->overload_events += engine->overload_events();
    }
    const uint64_t t4 = NowNs();
    for (int w = 0; w < workers_; ++w) {
      system_->TruncateLog(&system_->cpu(w), lanes_[static_cast<size_t>(w)].log);
    }
    const uint64_t t5 = NowNs();
    engine.reset();
    const uint64_t t6 = NowNs();
    const uint64_t round_ns = (t3 - t0) + (t6 - t4);
    if (!timed) {
      return 0;
    }
    totals_->writes += kWritesPerRound;
    if (traced_) {
      uint64_t run_end = t2;
      for (const Lane& lane : lanes_) {
        run_end = std::max(run_end, lane.last_step_ns);
      }
      SpanRecorder& spans = totals_->spans;
      const int root = spans.Add("par.round", t0, t6, -1);
      spans.Add("par.build", t0, t1, root);
      spans.Add("par.start", t1, t2, root);
      const int run = spans.Add("par.run", t2, run_end, root);
      spans.Add("par.join", run_end, t3, root);
      spans.Add("bench.check", t3, t4, root);
      spans.Add("lvm.truncate", t4, t5, root);
      for (size_t w = 0; w < lanes_.size(); ++w) {
        for (const auto& [start, end] : lanes_[w].writes) {
          // Writes before Start() returned precede par.run: not its children.
          if (start >= t2 && end <= run_end) {
            spans.Add("sim.write", start, end, run, static_cast<uint32_t>(w + 1));
          }
        }
      }
      spans.FinishRequest(totals_->rounds);
      totals_->run_ns += run_end - t2;
    }
    ++totals_->rounds;
    return round_ns;
  }

  // The shard log must hold exactly the round's writes, in order, with the
  // values written. On `recover`, also rolls lane.recovered forward from
  // the log with LogApplier (timed as recovery) and checks its contents.
  void CheckLog(const Lane& lane, bool recover) {
    const lvm::LogReader reader(system_->memory(), *lane.log);
    if (reader.size() != kWritesPerRound) {
      failures_.push_back("par_append: shard log holds " + std::to_string(reader.size()) +
                          " records, expected " + std::to_string(kWritesPerRound));
      return;
    }
    uint64_t bad = 0;
    for (uint32_t i = 0; i < kWritesPerRound; ++i) {
      const lvm::LogRecord record = reader.At(i);
      const uint32_t word = i % kRegionWords;
      const lvm::PhysAddr expected = lane.frames[word / kWordsPerPage] + 4 * (word % kWordsPerPage);
      bad += (record.addr != expected || record.value != lane.salt + i || record.size != 4) ? 1 : 0;
    }
    if (bad != 0) {
      failures_.push_back("par_append: " + std::to_string(bad) +
                          " shard log records differ from the writes");
    }
    if (!recover) {
      return;
    }
    lvm::Cpu* cpu = &system_->cpu(0);
    const uint64_t start = NowNs();
    lvm::LogApplier(system_.get())
        .ApplyRetargeted(cpu, reader, 0, reader.size(), *lane.segment, lane.recovered);
    totals_->samples.recovery_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    system_->FlushSegment(cpu, lane.recovered);
    uint64_t stale = 0;
    for (uint32_t word = 0; word < kRegionWords; ++word) {
      // The last step that wrote this word.
      const uint32_t step = word + kRegionWords * ((kWritesPerRound - 1 - word) / kRegionWords);
      const lvm::PhysAddr frame = lane.recovered->FrameAt(word / kWordsPerPage);
      stale += system_->memory().Read(frame + 4 * (word % kWordsPerPage), 4) != lane.salt + step
                   ? 1
                   : 0;
    }
    if (stale != 0) {
      failures_.push_back("par_append: " + std::to_string(stale) +
                          " words of the image rolled forward from the log are stale");
    }
  }

  Totals* totals_;
  const int workers_;
  const uint64_t seed_;
  const bool traced_;
  lvm::Rng rng_;
  std::unique_ptr<lvm::LvmSystem> system_;
  std::vector<Lane> lanes_;
  std::vector<std::string> failures_;
};

void RunPhase(Totals* totals, int workers, bool traced, double seconds, const RunOptions& options,
              const Placement& placement, Result* result) {
  RunEpochs(
      [&](uint64_t epoch) {
        return std::make_unique<ParEpoch>(totals, workers, EpochSeed(options.seed, epoch), traced);
      },
      seconds, placement, result, &totals->samples, workers);
}

}  // namespace

void RunParAppend1w(const RunOptions& options, const Placement& placement, Result* result) {
  constexpr double kWritesPerEpoch = double{kWritesPerRound} * kRoundsPerEpoch;
  Totals plain;
  RunPhase(&plain, 1, /*traced=*/false, options.seconds, options, placement, result);
  const double ops_per_s = plain.samples.ops_per_s(kWritesPerEpoch);
  result->attempted += plain.writes;
  result->notes.push_back(
      "op = one simulated logged write; " + std::to_string(plain.writes) + " writes in " +
      std::to_string(plain.rounds) + " rounds of " + std::to_string(kWritesPerRound) + ", " +
      std::to_string(plain.samples.epochs) + " epochs");
  result->notes.push_back(
      "metrics come from the 3 fastest epochs, setup_s is the median; op_p50_us and "
      "op_p99_us are the host time of " +
      std::to_string(kBatchWrites) + " consecutive writes, n=" +
      std::to_string(kWritesPerRound / kBatchWrites * kRoundsPerEpoch) +
      " per epoch; recovery_s rolls one round's log forward");
  if (!options.trace) {
    plain.samples.Report(kWritesPerEpoch, result);
    return;
  }

  Totals traced;
  RunPhase(&traced, 1, /*traced=*/true, options.seconds, options, placement, result);
  result->attempted += traced.writes;
  const double records = static_cast<double>(traced.records);
  const double rounds = static_cast<double>(traced.rounds);
  const double traced_ops_per_s = traced.samples.ops_per_s(kWritesPerEpoch);
  const SpanRecorder& spans = traced.spans;
  auto p50_us = [&](const char* name) { return spans.stats(name).duration.Percentile(50) / 1e3; };
  const double ns_per_record_1w = static_cast<double>(traced.run_ns) / records;
  result->Set("sim.write.p50_ns", spans.stats("sim.write").duration.Percentile(50), "ns");
  result->Set("sim.host_ns_per_record", ns_per_record_1w, "ns");
  result->Set("par.build.p50_us", p50_us("par.build"), "us");
  result->Set("par.start.p50_us", p50_us("par.start"), "us");
  result->Set("par.join.p50_us", p50_us("par.join"), "us");
  result->Set("lvm.truncate.p50_us", p50_us("lvm.truncate"), "us");
  result->Set("par.records_per_round", records / rounds, "count");
  result->Set("par.batches_per_round", static_cast<double>(traced.batches) / rounds, "count");
  result->Set("par.ring_full_stalls", static_cast<double>(traced.ring_full_stalls), "count");
  result->Set("par.overload_events", static_cast<double>(traced.overload_events), "count");
  result->Set("bus.transactions_per_record",
              static_cast<double>(traced.bus_transactions) / records, "count");
  result->Set("trace.overhead_frac", 1.0 - traced_ops_per_s / ops_per_s, "fraction");

  // Two workers on two CPUs of the mask: not gated, a view of contention.
  Totals two;
  RunPhase(&two, 2, /*traced=*/true, options.seconds / 2, options, placement, result);
  const double ns_per_write_2w = static_cast<double>(two.run_ns) / static_cast<double>(two.writes);
  result->Set("par.write.p50_ns_2w", two.spans.stats("sim.write").duration.Percentile(50), "ns");
  result->Set("par.contention_ns_per_write", ns_per_write_2w - ns_per_record_1w, "ns");
  result->Set("l2.stripe_contention_per_krecord",
              static_cast<double>(two.stripe_contention) * 1000.0 /
                  static_cast<double>(two.records),
              "count");
  result->notes.push_back("untraced ops_per_s=" + std::to_string(ops_per_s) +
                          " traced ops_per_s=" + std::to_string(traced_ops_per_s) +
                          " two-worker ns/write=" + std::to_string(ns_per_write_2w));
  ExportTrace(spans, options, "par_append_1w", result);
}

}  // namespace perfbench
