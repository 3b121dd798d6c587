// durable_txn: DurableTransactionalRegion on tmpfs, 256 pages, default
// WalOptions (256 blocks, group-commit window 8). Each transaction stores 4
// words on each of 4 seeded pages and commits. The only host-native path:
// mprotect/SIGSEGV dirty tracking with twins, the word diff, WalArena
// Append/group flush/Replay and HostMappedFile msync; it bypasses the whole
// simulator, so it is the control for every sim, logger and par change.
#include <sched.h>
#include <sys/mount.h>
#include <sys/stat.h>
#include <sys/statfs.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/workloads.h"
#include "src/base/rng.h"
#include "src/hostlvm/durable_region.h"
#include "src/hostlvm/wal_arena.h"
#include "src/obs/metrics.h"

namespace perfbench {
namespace {

constexpr size_t kPages = 256;
constexpr int kPagesPerTxn = 4;
constexpr int kWordsPerPage = 4;
constexpr uint32_t kWordsInPage = 4096 / 4;
constexpr uint64_t kTxnPerEpoch = 10000;
// Reopens per epoch, each one recovery_s sample.
constexpr int kReopens = 3;
constexpr long kTmpfsMagic = 0x01021994;

struct Totals {
  uint64_t txns = 0;
  EpochSamples samples;
  // Commit latency by what the commit did.
  LatencyHistogram stage_ns;
  LatencyHistogram flush_ns;
  LatencyHistogram checkpoint_ns;
  uint64_t faults = 0;
  uint64_t bytes_appended = 0;
  uint64_t syncs = 0;
  uint64_t commits = 0;
  uint64_t checkpoints = 0;
  uint64_t replay_records = 0;
  uint64_t replay_ns = 0;
  uint64_t replayed_commits = 0;  // Of the last epoch, for the notes.
  uint64_t requests = 0;          // Traced: request ids of the spans.
  SpanRecorder spans;
};

lvm::DurableRegionOptions RegionOptions() {
  lvm::DurableRegionOptions options;
  options.pages = kPages;  // Default WalOptions: 256 blocks, window 8.
  return options;
}

class DurableEpoch final : public Epoch {
 public:
  DurableEpoch(Totals* totals, std::string dir, uint64_t seed, bool traced)
      : totals_(totals), dir_(std::move(dir)), traced_(traced), rng_(seed) {}

  ~DurableEpoch() override {
    registry_.reset();
    region_.reset();
    std::remove(lvm::DurableTransactionalRegion::ImagePath(dir_).c_str());
    std::remove(lvm::DurableTransactionalRegion::WalPath(dir_).c_str());
    rmdir(dir_.c_str());
  }

  void Setup() override {
    std::string error;
    region_ = lvm::DurableTransactionalRegion::Open(dir_, RegionOptions(), &error);
    if (region_ == nullptr) {
      failures_.push_back("durable_txn: cannot open " + dir_ + ": " + error);
      return;
    }
    registry_ = std::make_unique<lvm::obs::MetricsRegistry>();
    region_->RegisterMetrics(registry_.get());
    shadow_.assign(region_->size_bytes(), 0);
    // Warm until the first checkpoint: every WAL block and image page has
    // then been written once, so the timed phase takes no first-touch faults.
    while (region_->checkpoints() == 0) {
      Transact(/*timed=*/false);
    }
  }

  uint64_t Run() override {
    if (region_ == nullptr) {
      return 0;
    }
    const uint64_t faults = region_->region()->faults();
    const lvm::obs::Snapshot before = registry_->TakeSnapshot();
    const uint64_t start = NowNs();
    for (uint64_t i = 0; i < kTxnPerEpoch; ++i) {
      Transact(/*timed=*/true);
    }
    const uint64_t end = NowNs();
    totals_->samples.AddLatencies(end - start, latency_ns_);
    const lvm::obs::Snapshot delta = registry_->TakeSnapshot().Delta(before);
    totals_->faults += region_->region()->faults() - faults;
    totals_->bytes_appended += delta.counter("wal.bytes_appended");
    totals_->syncs += delta.counter("wal.syncs");
    totals_->commits += delta.counter("wal.commits");
    totals_->checkpoints += delta.counter("wal.checkpoints");
    totals_->txns += kTxnPerEpoch;
    return end - start;
  }

  // Closes the region, recovers it, and compares it with the shadow copy.
  // Counts the epoch's transactions as failed once, whatever number of
  // checks failed.
  void Check(Result* result) override {
    RecoverAndCompare();
    if (!failures_.empty()) {
      result->Fail(kTxnPerEpoch, failures_.front() + " (" + std::to_string(failures_.size()) +
                                     " failed checks in this epoch)");
    }
  }

 private:
  void RecoverAndCompare() {
    if (region_ == nullptr) {
      return;
    }
    registry_.reset();
    region_.reset();  // Flushes the staged group.
    std::string error;
    if (traced_) {
      // The WAL alone: Open plus Replay of the same file.
      const uint64_t t0 = NowNs();
      auto wal = lvm::WalArena::Open(lvm::DurableTransactionalRegion::WalPath(dir_), &error);
      if (wal == nullptr) {
        failures_.push_back("durable_txn: WalArena::Open: " + error);
        return;
      }
      const uint64_t t1 = NowNs();
      const lvm::WalRecoveryStats stats = wal->Replay([](const lvm::WalRecoveredCommit&) {});
      const uint64_t t2 = NowNs();
      const int root = totals_->spans.Add("wal.recover", t0, t2, -1);
      totals_->spans.Add("wal.open", t0, t1, root);
      totals_->spans.Add("wal.replay", t1, t2, root);
      totals_->spans.FinishRequest(totals_->requests++);
      totals_->replay_records += stats.records_applied;
      totals_->replay_ns += t2 - t1;
    }
    for (int k = 0; k < kReopens; ++k) {
      const uint64_t t0 = NowNs();
      auto again = lvm::DurableTransactionalRegion::Open(dir_, RegionOptions(), &error);
      const uint64_t t1 = NowNs();
      if (again == nullptr) {
        failures_.push_back("durable_txn: reopen failed: " + error);
        return;
      }
      totals_->samples.recovery_s.push_back(static_cast<double>(t1 - t0) * 1e-9);
      if (traced_) {
        totals_->spans.Add("hostlvm.open", t0, t1, -1);
        totals_->spans.FinishRequest(totals_->requests++);
      }
      const uint64_t replayed = again->recovery_stats().commits_applied;
      totals_->replayed_commits = replayed;
      if (replayed != commits_since_checkpoint_) {
        failures_.push_back("durable_txn: reopen replayed " + std::to_string(replayed) +
                            " commits, " + std::to_string(commits_since_checkpoint_) +
                            " were made since the last checkpoint");
      }
      if (again->size_bytes() != shadow_.size() ||
          std::memcmp(again->data(), shadow_.data(), shadow_.size()) != 0) {
        failures_.push_back("durable_txn: reopened region differs from the shadow copy");
      }
    }
  }

  // One transaction: 4 words on each of 4 distinct seeded pages, with
  // values never stored before, so every commit logs exactly 16 words.
  void Transact(bool timed) {
    uint32_t offsets[kPagesPerTxn * kWordsPerPage];
    int n = 0;
    for (int p = 0; p < kPagesPerTxn; ++p) {
      uint32_t page = 0;
      bool fresh = false;
      while (!fresh) {
        page = static_cast<uint32_t>(rng_.Uniform(kPages));
        fresh = true;
        for (int q = 0; q < p; ++q) {
          fresh = fresh && offsets[q * kWordsPerPage] / kWordsInPage != page;
        }
      }
      for (int w = 0; w < kWordsPerPage; ++w) {
        // Distinct words: one per quarter of the page.
        const uint32_t word = static_cast<uint32_t>(w) * (kWordsInPage / kWordsPerPage) +
                              static_cast<uint32_t>(rng_.Uniform(kWordsInPage / kWordsPerPage));
        offsets[n++] = page * kWordsInPage + word;
      }
    }
    const uint32_t first_value = next_value_;
    next_value_ += static_cast<uint32_t>(n);
    uint32_t* data = region_->data<uint32_t>();
    lvm::WalArena* wal = region_->wal();
    const uint64_t flushes = wal->flushes();
    const uint64_t checkpoints = region_->checkpoints();

    const uint64_t t0 = NowNs();
    region_->Begin();
    const uint64_t t1 = NowNs();
    for (int k = 0; k < n; ++k) {
      data[offsets[k]] = first_value + static_cast<uint32_t>(k);
    }
    const uint64_t t2 = NowNs();
    region_->Commit();
    const uint64_t t3 = NowNs();

    for (int k = 0; k < n; ++k) {
      const uint32_t value = first_value + static_cast<uint32_t>(k);
      std::memcpy(&shadow_[offsets[k] * 4], &value, 4);
    }
    const bool checkpointed = region_->checkpoints() != checkpoints;
    commits_since_checkpoint_ = checkpointed ? 1 : commits_since_checkpoint_ + 1;
    if (!timed) {
      return;
    }
    latency_ns_.Record(t3 - t0);
    if (checkpointed) {
      totals_->checkpoint_ns.Record(t3 - t2);
    } else if (wal->flushes() != flushes) {
      totals_->flush_ns.Record(t3 - t2);
    } else {
      totals_->stage_ns.Record(t3 - t2);
    }
    if (traced_) {
      SpanRecorder& spans = totals_->spans;
      const int root = spans.Add("txn", t0, t3, -1);
      spans.Add("hostlvm.begin", t0, t1, root);
      spans.Add("hostlvm.stores", t1, t2, root);
      spans.Add("hostlvm.commit", t2, t3, root);
      spans.FinishRequest(totals_->requests++);
    }
  }

  Totals* totals_;
  const std::string dir_;
  const bool traced_;
  lvm::Rng rng_;
  std::unique_ptr<lvm::DurableTransactionalRegion> region_;
  // Declared after region_: holds pointers to its counters.
  std::unique_ptr<lvm::obs::MetricsRegistry> registry_;
  std::vector<uint8_t> shadow_;
  LatencyHistogram latency_ns_;
  uint32_t next_value_ = 1;
  uint64_t commits_since_checkpoint_ = 0;
  std::vector<std::string> failures_;
};

std::string FsName(long magic) {
  switch (magic) {
    case kTmpfsMagic:
      return "tmpfs";
    case 0xEF53:
      return "ext2/3/4";
    case 0x794c7630:
      return "overlayfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    default: {
      char hex[32];
      std::snprintf(hex, sizeof(hex), "0x%lx", static_cast<unsigned long>(magic));
      return hex;
    }
  }
}

long FsMagic(const std::string& dir) {
  struct statfs fs = {};
  return statfs(dir.c_str(), &fs) == 0 ? static_cast<long>(fs.f_type) : -1;
}

bool WriteFile(const char* path, const std::string& text) {
  std::ofstream file(path);
  file << text;
  return static_cast<bool>(file);
}

// Mounts a tmpfs at `dir` that only this process sees: a private mount
// namespace (through a user namespace when the process lacks
// CAP_SYS_ADMIN), so nothing outlives the run. Must run before the process
// starts any thread.
bool MountPrivateTmpfs(const std::string& dir, std::string* error) {
  if (unshare(CLONE_NEWNS) != 0) {
    const uid_t uid = getuid();
    const gid_t gid = getgid();
    if (unshare(CLONE_NEWUSER | CLONE_NEWNS) != 0 ||
        !WriteFile("/proc/self/setgroups", "deny") ||
        !WriteFile("/proc/self/uid_map", "0 " + std::to_string(uid) + " 1") ||
        !WriteFile("/proc/self/gid_map", "0 " + std::to_string(gid) + " 1")) {
      *error = std::string("unshare: ") + std::strerror(errno);
      return false;
    }
  }
  if (mount(nullptr, "/", nullptr, MS_REC | MS_PRIVATE, nullptr) != 0 ||
      mount("perfbench", dir.c_str(), "tmpfs", MS_NOSUID | MS_NODEV, "size=256m,mode=0700") != 0) {
    *error = std::string("mount: ") + std::strerror(errno);
    return false;
  }
  return true;
}

void RunPhase(Totals* totals, bool traced, const RunOptions& options, const Placement& placement,
              Result* result) {
  RunEpochs(
      [&](uint64_t epoch) {
        return std::make_unique<DurableEpoch>(
            totals, options.data_dir + "/epoch-" + std::to_string(epoch),
            EpochSeed(options.seed, epoch), traced);
      },
      options.seconds, placement, result, &totals->samples);
}

}  // namespace

void RunDurableTxn(const RunOptions& options, const Placement& placement, Result* result) {
  // Refuse anything but tmpfs: msync on a disk filesystem swings commit
  // latency by more than the benchmark's bounds.
  mkdir(options.data_dir.c_str(), 0700);
  const long found = FsMagic(options.data_dir);
  std::string placement_note = "the directory's own filesystem";
  if (found != kTmpfsMagic) {
    std::string error;
    if (!MountPrivateTmpfs(options.data_dir, &error) || FsMagic(options.data_dir) != kTmpfsMagic) {
      result->Fail(0, "durable_txn: " + options.data_dir + " is " + FsName(found) +
                          ", not tmpfs, and a private tmpfs mount failed (" + error + ")");
      return;
    }
    placement_note = "a private tmpfs mounted over " + FsName(found);
  }
  result->notes.push_back("filesystem: tmpfs (" + placement_note + ") at " + options.data_dir +
                          "; flush policy: tmpfs msync, group-commit window 8");

  Totals plain;
  RunPhase(&plain, /*traced=*/false, options, placement, result);
  const double ops_per_s = plain.samples.ops_per_s(kTxnPerEpoch);
  result->attempted += plain.txns;
  result->notes.push_back("op = one committed transaction of " +
                          std::to_string(kPagesPerTxn * kWordsPerPage) + " words on " +
                          std::to_string(kPagesPerTxn) + " pages; " + std::to_string(plain.txns) +
                          " transactions in " + std::to_string(plain.samples.epochs) +
                          " epochs of " + std::to_string(kTxnPerEpoch));
  result->notes.push_back("metrics come from the 3 fastest epochs, setup_s is the median; "
                          "op_p50_us and op_p99_us of n=" +
                          std::to_string(kTxnPerEpoch) + " transactions per epoch; recovery_s of " +
                          std::to_string(kReopens) + " reopens per epoch, each replaying " +
                          std::to_string(plain.replayed_commits) + " commits");
  if (!options.trace) {
    plain.samples.Report(kTxnPerEpoch, result);
    return;
  }

  Totals traced;
  RunPhase(&traced, /*traced=*/true, options, placement, result);
  result->attempted += traced.txns;
  const double txns = static_cast<double>(traced.txns);
  const double traced_ops_per_s = traced.samples.ops_per_s(kTxnPerEpoch);
  const SpanRecorder& spans = traced.spans;
  result->Set("hostlvm.begin.p50_us", spans.stats("hostlvm.begin").duration.Percentile(50) / 1e3,
              "us");
  result->Set("hostlvm.stores.p50_us",
              spans.stats("hostlvm.stores").duration.Percentile(50) / 1e3, "us");
  result->Set("hostlvm.faults_per_txn", static_cast<double>(traced.faults) / txns, "count");
  result->Set("wal.commit_stage.p50_us", traced.stage_ns.Percentile(50) / 1e3, "us");
  result->Set("wal.commit_flush.p50_us", traced.flush_ns.Percentile(50) / 1e3, "us");
  result->Set("wal.checkpoint.p50_ms", traced.checkpoint_ns.Percentile(50) / 1e6, "ms");
  result->Set("wal.checkpoints_per_ktxn", static_cast<double>(traced.checkpoints) * 1000.0 / txns,
              "count");
  result->Set("wal.bytes_per_user_byte",
              static_cast<double>(traced.bytes_appended) /
                  (txns * kPagesPerTxn * kWordsPerPage * 4),
              "ratio");
  result->Set("wal.syncs_per_commit",
              static_cast<double>(traced.syncs) / static_cast<double>(traced.commits), "count");
  result->Set("wal.replay.p50_ms", spans.stats("wal.replay").duration.Percentile(50) / 1e6, "ms");
  result->Set("wal.replay.records_per_ms",
              static_cast<double>(traced.replay_records) /
                  (static_cast<double>(traced.replay_ns) / 1e6),
              "1/ms");
  result->Set("hostlvm.open.p50_ms", spans.stats("hostlvm.open").duration.Percentile(50) / 1e6,
              "ms");
  result->Set("trace.overhead_frac", 1.0 - traced_ops_per_s / ops_per_s, "fraction");
  result->notes.push_back("commit classes: stage n=" + std::to_string(traced.stage_ns.count()) +
                          ", flush n=" + std::to_string(traced.flush_ns.count()) +
                          ", checkpoint n=" + std::to_string(traced.checkpoint_ns.count()));
  result->notes.push_back("untraced ops_per_s=" + std::to_string(ops_per_s) +
                          " traced ops_per_s=" + std::to_string(traced_ops_per_s));
  ExportTrace(spans, options, "durable_txn", result);
}

}  // namespace perfbench
