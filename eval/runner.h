// Scenario runner: the one entry point benches use. A Session executes
// declarative ScenarioSpecs — resolve the workload dataset (cached per
// model kind), train through the store-backed model cache, Monte-Carlo
// evaluate through the store-backed result cache — and returns a
// ScenarioResult carrying the numbers plus provenance (what was actually
// computed vs loaded) and timing. Deterministic: a warm session run
// reproduces a cold run's numbers bit-identically (DESIGN.md §11), so
// the provenance/timing channel is the only part that may differ —
// benches print it to stderr, keeping stdout byte-stable.
#pragma once

#include <map>
#include <vector>

#include "eval/experiment.h"
#include "eval/manifest.h"
#include "eval/scenario.h"

namespace qavat {

/// Everything Session::run produces for one scenario: accuracies,
/// Monte-Carlo stats, provenance and timing.
struct ScenarioResult {
  std::string key;          ///< the spec's canonical cache/store key
  double clean_acc = 0.0;   ///< noise-free test accuracy of the model
  double mean_acc = 0.0;    ///< mc.accuracy.mean, or clean_acc for a
                            ///< clean-only spec (deploy noise disabled)
  EvalStats mc;             ///< Monte-Carlo stats (n_chips 0 if clean-only)
  bool trained = false;         ///< training actually ran during this call
  bool model_from_store = false;  ///< model loaded from the disk store
  bool eval_computed = false;   ///< MC eval ran (vs memory/store hit)
  double train_seconds = 0.0;   ///< wall time in the training entry point
  double eval_seconds = 0.0;    ///< wall time in the evaluation entry point
};

/// Snapshot of a Session's provenance counters (the numbers
/// print_summary writes to stderr), exposed so schedulers and tests can
/// assert aggregation without scraping the log line. train_runs lives in
/// eval/experiment.h (training_runs()) because it is process-wide, not
/// per-session.
struct SessionCounters {
  index_t scenarios = 0;        ///< run() calls completed
  index_t trained = 0;          ///< scenarios that ran any train() phase
  index_t model_store_hits = 0; ///< models loaded from the disk store
  index_t evals_computed = 0;   ///< Monte-Carlo evals actually executed
  index_t eval_cache_hits = 0;  ///< evals served from memory/store
  double train_seconds = 0.0;   ///< wall time in training entry points
  double eval_seconds = 0.0;    ///< wall time in evaluation entry points
};

/// One work-claim unit of a scenario: the (store bucket, canonical key)
/// pair the work-claim protocol serializes producers on. The scheduler
/// probes these to decide whether another process is already producing
/// part of a scenario.
struct ClaimUnitRef {
  const char* bucket;  ///< store bucket name ("models" or "evals")
  std::string key;     ///< canonical artifact key within the bucket
};

/// Trace of one run_manifest execution, for tests and --dry-run
/// introspection of the claim-aware scheduler.
struct SweepSchedule {
  std::vector<index_t> completion_order;  ///< spec indices, in the order
                                          ///< they actually executed
  index_t deferrals = 0;   ///< times a busy unit made the scheduler skip
                           ///< a spec and move on within a round
  index_t wait_rounds = 0; ///< rounds where every pending spec was busy
                           ///< and the scheduler had to back off
};

/// Executes ScenarioSpecs against process-wide caches and the artifact
/// store, memoizing datasets per model kind and aggregating provenance
/// counters across every run() — one Session per bench binary.
class Session {
 public:
  /// Train (through the cache/store) and evaluate one scenario.
  ScenarioResult run(const ScenarioSpec& spec);

  /// Batch execution over a manifest (the one scheduler): results return in
  /// MANIFEST order with the same numbers and provenance a sequential
  /// run() loop would produce, but the execution order is dynamic —
  /// when a spec's next unproduced claim unit is held by another
  /// process (live .claim lease), the scheduler defers that spec and
  /// moves on to the next runnable one instead of blocking in the
  /// claim-wait loop; it only backs off (store_claim_backoff_wait) when
  /// every pending spec is busy. Exactly-once training across processes
  /// is untouched: the probe is advisory, and the underlying work-claim
  /// protocol still arbitrates every producer — the scheduler merely
  /// reorders local work so co-operating sweepers drain disjoint units
  /// first. With the store disabled, degenerates to a sequential run()
  /// loop. `schedule` (optional) receives the dynamic execution trace.
  /// A scenario failure propagates immediately (the failing spec's
  /// position in the dynamic order, not the manifest order).
  std::vector<ScenarioResult> run_manifest(const SweepManifest& manifest,
                                           SweepSchedule* schedule = nullptr);

  /// The work-claim units run(spec) would produce, in production order:
  /// the QAT pretrain model (or the PTQ-VAT model), the QAVAT fine-tune
  /// model when the spec fine-tunes, then the Monte-Carlo eval when
  /// deploy noise is enabled. Mirrors the key derivation inside
  /// eval/experiment.cpp; used by the scheduler and --dry-run to probe
  /// artifact/claim state non-destructively.
  std::vector<ClaimUnitRef> claim_units(const ScenarioSpec& spec);

  /// This session's provenance counters so far (run, run_manifest and
  /// train_model all aggregate into the same totals).
  SessionCounters counters() const;

  /// Just the (cached/store-backed) trained model of a scenario, for
  /// benches that drive a custom evaluation loop (drift, equivalence).
  /// Counts toward the session's provenance totals.
  TrainedModel train_model(const ScenarioSpec& spec);

  /// The workload dataset for `kind` (fast-mode-sized), built once per
  /// session.
  const SplitDataset& dataset(ModelKind kind);

  /// Two machine-greppable lines on stderr: the provenance summary, e.g.
  /// `[qavat-session] bench: scenarios=30 trained=0 train_runs=0
  /// model_store_hits=30 evals_computed=0 eval_cache_hits=30 train_s=0.00
  /// eval_s=0.00 backend=weight_domain` (train_runs is the process-wide
  /// train() phase count the work-claim protocol deduplicates across
  /// concurrent processes), and the `[qavat-store]` health counters
  /// (writes_failed, loads_corrupt, claims_reclaimed,
  /// retrains_after_corruption, tmp_swept, faults_injected, plus the
  /// serialize-layer envelope checksum counters). The CI warm-store gate
  /// asserts `trained=0`/`evals_computed=0`; the concurrent-sweep gate
  /// asserts the train_runs sum across two processes equals one cold run.
  void print_summary(const char* name) const;

 private:
  std::map<ModelKind, SplitDataset> datasets_;
  SessionCounters counters_;
};

}  // namespace qavat
