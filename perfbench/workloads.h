// The benchmark's workloads and the metrics they report.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include "perfbench/harness.h"

namespace perfbench {

// A metric every run reports (end to end, --trace 0) or every traced run
// reports (per layer, --trace 1), with the end-to-end metric a change to
// its layer should move. A per-layer metric of a layer the workload
// bypasses reads 0 on that workload: that is the bypass, measured.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* workload;  // "all" or the one workload that produces it.
  const char* moves;     // End-to-end metric(s) it should move.
};

inline constexpr MetricSpec kEndToEnd[] = {
    {"ops_per_s", "ops/s", "all", "itself"},
    {"op_p50_us", "us", "all", "itself"},
    {"op_p99_us", "us", "all", "itself"},
    {"recovery_s", "s", "all", "itself"},
    {"peak_rss_mb", "MB", "all", "itself"},
    {"setup_s", "s", "all", "itself"},
};

inline constexpr MetricSpec kPerLayer[] = {
    {"tpc.tx.self_ns", "ns", "tpca_rlvm", "nothing (a control)"},
    {"rvm.begin.p50_ns", "ns", "tpca_rlvm", "op_p50_us,ops_per_s"},
    {"rvm.read.p50_ns", "ns", "tpca_rlvm", "op_p50_us,ops_per_s"},
    {"rvm.write.p50_ns", "ns", "tpca_rlvm", "op_p50_us,ops_per_s"},
    {"rvm.commit.p50_ns", "ns", "tpca_rlvm", "op_p50_us"},
    {"rvm.commit.p99_ns", "ns", "tpca_rlvm", "op_p50_us"},
    {"rvm.abort.p50_ns", "ns", "tpca_rlvm", "op_p99_us"},
    {"rvm.truncate.p50_ns", "ns", "tpca_rlvm", "ops_per_s"},
    {"rvm.write.share", "fraction", "tpca_rlvm", "op_p50_us"},
    {"rvm.commit.share", "fraction", "tpca_rlvm", "op_p50_us"},
    {"rvm.abort.share", "fraction", "tpca_rlvm", "op_p99_us"},
    {"sim.cycles_per_tx", "cycles", "tpca_rlvm", "ops_per_s"},
    {"logger.records_per_tx", "count", "tpca_rlvm", "ops_per_s"},
    {"bus.transactions_per_tx", "count", "tpca_rlvm", "ops_per_s"},
    {"l2.fills_per_tx", "count", "tpca_rlvm", "ops_per_s"},
    {"kernel.logging_faults_per_ktx", "count", "tpca_rlvm", "ops_per_s"},
    {"flight.events_per_ktx", "count", "tpca_rlvm", "ops_per_s"},
    {"cpu.page_faults", "count", "tpca_rlvm", "ops_per_s"},
    {"sim.host_ns_per_kcycle", "ns", "tpca_rlvm", "ops_per_s"},
    {"sim.write.p50_ns", "ns", "par_append_1w", "ops_per_s"},
    {"sim.host_ns_per_record", "ns", "par_append_1w", "ops_per_s"},
    {"par.build.p50_us", "us", "par_append_1w", "ops_per_s"},
    {"par.start.p50_us", "us", "par_append_1w", "ops_per_s"},
    {"par.join.p50_us", "us", "par_append_1w", "ops_per_s"},
    {"lvm.truncate.p50_us", "us", "par_append_1w", "ops_per_s"},
    {"par.records_per_round", "count", "par_append_1w", "nothing (a control)"},
    {"par.batches_per_round", "count", "par_append_1w", "ops_per_s"},
    {"par.ring_full_stalls", "count", "par_append_1w", "ops_per_s"},
    {"par.overload_events", "count", "par_append_1w", "ops_per_s"},
    {"bus.transactions_per_record", "count", "par_append_1w", "ops_per_s"},
    {"par.write.p50_ns_2w", "ns", "par_append_1w", "nothing (two workers, not gated)"},
    {"par.contention_ns_per_write", "ns", "par_append_1w", "nothing (two workers, not gated)"},
    {"l2.stripe_contention_per_krecord", "count", "par_append_1w", "nothing (two workers, not gated)"},
    {"hostlvm.begin.p50_us", "us", "durable_txn", "op_p50_us"},
    {"hostlvm.stores.p50_us", "us", "durable_txn", "op_p50_us"},
    {"hostlvm.faults_per_txn", "count", "durable_txn", "op_p50_us"},
    {"wal.commit_stage.p50_us", "us", "durable_txn", "op_p50_us"},
    {"wal.commit_flush.p50_us", "us", "durable_txn", "op_p99_us"},
    {"wal.checkpoint.p50_ms", "ms", "durable_txn", "ops_per_s"},
    {"wal.checkpoints_per_ktxn", "count", "durable_txn", "ops_per_s"},
    {"wal.bytes_per_user_byte", "ratio", "durable_txn", "ops_per_s"},
    {"wal.syncs_per_commit", "count", "durable_txn", "op_p99_us"},
    {"wal.replay.p50_ms", "ms", "durable_txn", "recovery_s"},
    {"wal.replay.records_per_ms", "1/ms", "durable_txn", "recovery_s"},
    {"hostlvm.open.p50_ms", "ms", "durable_txn", "recovery_s,setup_s"},
    {"trace.overhead_frac", "fraction", "all", "nothing (the cost of tracing)"},
};

// Each workload runs its untraced phase (end-to-end metrics) or, when
// traced, an untraced phase and then a traced one (per-layer metrics and
// the tracing overhead), and fills `result`.
void RunTpcaRlvm(const RunOptions& options, const Placement& placement, Result* result);
void RunParAppend1w(const RunOptions& options, const Placement& placement, Result* result);
void RunDurableTxn(const RunOptions& options, const Placement& placement, Result* result);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
