// tpca_rlvm: the paper's headline application (Table 3). TPC-A debit-credit
// on RLVM with the RAM-disk redo log, one simulated CPU, a seeded 5% of
// transactions aborted. Drives sim reads and logged write-throughs, the bus
// HardwareLogger, and lvm's SyncLog/LogApplier/TruncateLog on commit and
// ResetDeferredCopy on abort; bypasses par and hostlvm.
#include <cstring>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/base/rng.h"
#include "src/lvm/lvm_system.h"
#include "src/rvm/ram_disk.h"
#include "src/rvm/rlvm.h"
#include "src/tpc/tpca.h"

namespace perfbench {
namespace {

constexpr uint64_t kTxPerEpoch = 50000;
// Transactions run in set-up, after every page is mapped, to warm the caches.
constexpr uint64_t kWarmTx = 2000;
constexpr double kAbortShare = 0.05;
// Recoveries per epoch, each one recovery_s sample.
constexpr int kRecoveries = 3;

// LvmSystem::metrics() counters the traced run turns into per-transaction
// ratios (timed-phase deltas).
constexpr const char* kCounters[] = {
    "cpu.max_cycles",         "logger.records_logged",  "bus.transactions", "l2.fills",
    "kernel.logging_faults_handled", "flight.events_recorded", "cpu.page_faults",
};

struct Totals {
  uint64_t transactions = 0;
  uint64_t aborts = 0;
  EpochSamples samples;
  std::map<std::string, uint64_t> counters;
  SpanRecorder spans;
};

// A RecoverableStore decorator recording one span per call into RLVM, as a
// child of the transaction's span. Records nothing while no parent is set.
class TracedStore final : public lvm::RecoverableStore {
 public:
  TracedStore(lvm::Rlvm* inner, SpanRecorder* spans) : inner_(inner), spans_(spans) {}

  void set_parent(int parent) { parent_ = parent; }

  lvm::VirtAddr data_base() const override { return inner_->data_base(); }
  uint32_t data_size() const override { return inner_->data_size(); }
  void Begin(lvm::Cpu* cpu) override {
    Timed("rvm.begin", [&] { inner_->Begin(cpu); });
  }
  void Commit(lvm::Cpu* cpu) override {
    Timed("rvm.commit", [&] { inner_->Commit(cpu); });
  }
  void Abort(lvm::Cpu* cpu) override {
    Timed("rvm.abort", [&] { inner_->Abort(cpu); });
  }
  // A no-op under RLVM: forwarded, not timed.
  void SetRange(lvm::Cpu* cpu, lvm::VirtAddr addr, uint32_t len) override {
    inner_->SetRange(cpu, addr, len);
  }
  void Write(lvm::Cpu* cpu, lvm::VirtAddr addr, uint32_t value, uint8_t size = 4) override {
    Timed("rvm.write", [&] { inner_->Write(cpu, addr, value, size); });
  }
  uint32_t Read(lvm::Cpu* cpu, lvm::VirtAddr addr, uint8_t size = 4) override {
    uint32_t value = 0;
    Timed("rvm.read", [&] { value = inner_->Read(cpu, addr, size); });
    return value;
  }
  // A span only when the device log was applied (every 64 commits).
  void MaybeTruncate(lvm::Cpu* cpu) override {
    const uint64_t before = inner_->disk()->truncations();
    const uint64_t start = NowNs();
    inner_->MaybeTruncate(cpu);
    const uint64_t end = NowNs();
    if (parent_ >= 0 && inner_->disk()->truncations() != before) {
      spans_->Add("rvm.truncate", start, end, parent_);
    }
  }

 private:
  template <typename Fn>
  void Timed(const char* name, Fn&& fn) {
    if (parent_ < 0) {
      fn();
      return;
    }
    const uint64_t start = NowNs();
    fn();
    spans_->Add(name, start, NowNs(), parent_);
  }

  lvm::Rlvm* inner_;
  SpanRecorder* spans_;
  int parent_ = -1;
};

class TpcaEpoch final : public Epoch {
 public:
  TpcaEpoch(Totals* totals, uint64_t seed, bool traced)
      : totals_(totals), seed_(seed), traced_(traced) {
    config_.seed = seed;  // Defaults: 1 branch, 10 tellers, 10k accounts, 4k history slots.
  }

  void Setup() override {
    lvm::LvmConfig config;
    config.seed = seed_;
    system_ = std::make_unique<lvm::LvmSystem>(config);
    lvm::AddressSpace* as = system_->CreateAddressSpace();
    system_->Activate(as);
    rlvm_ = std::make_unique<lvm::Rlvm>(system_.get(), as, &disk_, config_.RequiredBytes());
    lvm::RecoverableStore* store = rlvm_.get();
    if (traced_) {
      traced_store_ = std::make_unique<TracedStore>(rlvm_.get(), &totals_->spans);
      store = traced_store_.get();
    }
    tpca_ = std::make_unique<lvm::TpcA>(store, config_);
    lvm::Cpu* cpu = &system_->cpu();
    tpca_->Setup(cpu);
    // Map and log every page before timing: one transaction rewrites the
    // first word of each page with the value it holds.
    rlvm_->Begin(cpu);
    for (uint32_t offset = 0; offset < rlvm_->data_size(); offset += lvm::kPageSize) {
      const lvm::VirtAddr addr = rlvm_->data_base() + offset;
      rlvm_->Write(cpu, addr, rlvm_->Read(cpu, addr));
    }
    rlvm_->Commit(cpu);
    lvm::Rng aborts(seed_ ^ 0x5741524dULL);
    for (uint64_t i = 0; i < kWarmTx; ++i) {
      RunOne(cpu, aborts.Chance(kAbortShare));
    }
  }

  uint64_t Run() override {
    lvm::Cpu* cpu = &system_->cpu();
    lvm::Rng aborts(seed_);
    uint64_t aborted = 0;
    LatencyHistogram latency_ns;
    const lvm::obs::Snapshot before = system_->metrics().TakeSnapshot();
    const uint64_t start = NowNs();
    for (uint64_t i = 0; i < kTxPerEpoch; ++i) {
      const bool abort = aborts.Chance(kAbortShare);
      aborted += abort ? 1 : 0;
      const uint64_t t0 = NowNs();
      if (!traced_) {
        RunOne(cpu, abort);
        latency_ns.Record(NowNs() - t0);
        continue;
      }
      const int root = totals_->spans.Add("tpc.tx", t0, 0, -1);
      traced_store_->set_parent(root);
      RunOne(cpu, abort);
      const uint64_t t1 = NowNs();
      traced_store_->set_parent(-1);
      latency_ns.Record(t1 - t0);
      totals_->spans.Close(root, t1);
      totals_->spans.FinishRequest(totals_->transactions + i);
    }
    const uint64_t end = NowNs();
    const lvm::obs::Snapshot delta = system_->metrics().TakeSnapshot().Delta(before);
    for (const char* name : kCounters) {
      totals_->counters[name] += delta.counter(name);
    }
    totals_->samples.AddLatencies(end - start, latency_ns);
    totals_->transactions += kTxPerEpoch;
    totals_->aborts += aborted;
    return end - start;
  }

  void Check(Result* result) override {
    lvm::Cpu* cpu = &system_->cpu();
    std::vector<uint8_t> image;
    for (int k = 0; k < kRecoveries; ++k) {
      const uint64_t start = NowNs();
      image = disk_.RecoverImage(rlvm_->data_size());
      totals_->samples.recovery_s.push_back(static_cast<double>(NowNs() - start) * 1e-9);
    }
    if (!tpca_->CheckConsistency(cpu)) {
      result->Fail(kTxPerEpoch, "tpca_rlvm: TpcA::CheckConsistency failed");
      return;
    }
    // Rows are 16 bytes with the balance first: branches, tellers, accounts.
    uint32_t row = 0;
    uint64_t mismatches = 0;
    auto expect = [&](int32_t balance) {
      int32_t recovered = 0;
      std::memcpy(&recovered, &image[row * lvm::TpcAConfig::kRowBytes], sizeof(recovered));
      mismatches += recovered != balance ? 1 : 0;
      ++row;
    };
    for (uint32_t i = 0; i < config_.branches; ++i) {
      expect(tpca_->BranchBalance(cpu, i));
    }
    for (uint32_t i = 0; i < config_.tellers; ++i) {
      expect(tpca_->TellerBalance(cpu, i));
    }
    for (uint32_t i = 0; i < config_.accounts; ++i) {
      expect(tpca_->AccountBalance(cpu, i));
    }
    if (mismatches != 0) {
      result->Fail(kTxPerEpoch, "tpca_rlvm: RamDisk::RecoverImage differs from " +
                                    std::to_string(mismatches) + " balances read back");
    }
  }

 private:
  void RunOne(lvm::Cpu* cpu, bool abort) {
    if (abort) {
      tpca_->RunAbortedTransaction(cpu);
    } else {
      tpca_->RunTransaction(cpu);
    }
  }

  Totals* totals_;
  const uint64_t seed_;
  const bool traced_;
  lvm::TpcAConfig config_;
  lvm::RamDisk disk_;
  std::unique_ptr<lvm::LvmSystem> system_;
  std::unique_ptr<lvm::Rlvm> rlvm_;
  std::unique_ptr<TracedStore> traced_store_;
  std::unique_ptr<lvm::TpcA> tpca_;
};

void RunPhase(Totals* totals, bool traced, const RunOptions& options, const Placement& placement,
              Result* result) {
  RunEpochs(
      [&](uint64_t epoch) {
        return std::make_unique<TpcaEpoch>(totals, EpochSeed(options.seed, epoch), traced);
      },
      options.seconds, placement, result, &totals->samples);
}

}  // namespace

void RunTpcaRlvm(const RunOptions& options, const Placement& placement, Result* result) {
  Totals plain;
  RunPhase(&plain, /*traced=*/false, options, placement, result);
  const double ops_per_s = plain.samples.ops_per_s(kTxPerEpoch);
  result->attempted += plain.transactions;
  result->notes.push_back("op = one TPC-A transaction (committed or aborted); " +
                          std::to_string(plain.transactions) + " transactions, " +
                          std::to_string(plain.aborts) + " aborted, in " +
                          std::to_string(plain.samples.epochs) + " epochs of " +
                          std::to_string(kTxPerEpoch));
  result->notes.push_back("metrics come from the 3 fastest epochs, setup_s is the median; "
                          "op_p50_us and op_p99_us of n=" +
                          std::to_string(kTxPerEpoch) + " transactions per epoch");
  if (!options.trace) {
    plain.samples.Report(kTxPerEpoch, result);
    return;
  }

  Totals traced;
  RunPhase(&traced, /*traced=*/true, options, placement, result);
  result->attempted += traced.transactions;
  const double tx = static_cast<double>(traced.transactions);
  const double traced_ops_per_s = traced.samples.ops_per_s(kTxPerEpoch);
  const SpanRecorder& spans = traced.spans;
  const SpanStats& root = spans.stats("tpc.tx");
  auto p50 = [&](const char* name) { return spans.stats(name).duration.Percentile(50); };
  auto share = [&](const char* name) {
    return static_cast<double>(spans.stats(name).total_ns) / static_cast<double>(root.total_ns);
  };
  auto per_tx = [&](const char* counter, double scale) {
    return static_cast<double>(traced.counters[counter]) * scale / tx;
  };
  result->Set("tpc.tx.self_ns", root.self.Percentile(50), "ns");
  result->Set("rvm.begin.p50_ns", p50("rvm.begin"), "ns");
  result->Set("rvm.read.p50_ns", p50("rvm.read"), "ns");
  result->Set("rvm.write.p50_ns", p50("rvm.write"), "ns");
  result->Set("rvm.commit.p50_ns", p50("rvm.commit"), "ns");
  result->Set("rvm.commit.p99_ns", spans.stats("rvm.commit").duration.Percentile(99), "ns");
  result->Set("rvm.abort.p50_ns", p50("rvm.abort"), "ns");
  result->Set("rvm.truncate.p50_ns", p50("rvm.truncate"), "ns");
  result->Set("rvm.write.share", share("rvm.write"), "fraction");
  result->Set("rvm.commit.share", share("rvm.commit"), "fraction");
  result->Set("rvm.abort.share", share("rvm.abort"), "fraction");
  result->Set("sim.cycles_per_tx", per_tx("cpu.max_cycles", 1), "cycles");
  result->Set("logger.records_per_tx", per_tx("logger.records_logged", 1), "count");
  result->Set("bus.transactions_per_tx", per_tx("bus.transactions", 1), "count");
  result->Set("l2.fills_per_tx", per_tx("l2.fills", 1), "count");
  result->Set("kernel.logging_faults_per_ktx", per_tx("kernel.logging_faults_handled", 1000),
              "count");
  result->Set("flight.events_per_ktx", per_tx("flight.events_recorded", 1000), "count");
  result->Set("cpu.page_faults", static_cast<double>(traced.counters["cpu.page_faults"]),
              "count");
  result->Set("sim.host_ns_per_kcycle",
              static_cast<double>(traced.samples.timed_ns) /
                  (static_cast<double>(traced.counters["cpu.max_cycles"]) / 1000.0),
              "ns");
  result->Set("trace.overhead_frac", 1.0 - traced_ops_per_s / ops_per_s, "fraction");
  result->notes.push_back("untraced ops_per_s=" + std::to_string(ops_per_s) +
                          " traced ops_per_s=" + std::to_string(traced_ops_per_s));
  ExportTrace(spans, options, "tpca_rlvm", result);
}

}  // namespace perfbench
