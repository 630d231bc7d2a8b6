// Experiment harness shared by all bench binaries: workload defaults per
// model kind, a process-wide model cache (training is the expensive step
// and many tables reuse the same trained model), a result cache for
// Monte-Carlo evaluations, and the QAVAT_FAST=1 switch that shrinks every
// budget for smoke testing.
//
// Both caches are read-through layers over the on-disk artifact store
// (eval/store.h): a miss probes the store before computing, and every
// computed artifact is persisted, so a warm second run of any bench
// loads its trained models and Monte-Carlo results bit-identically
// instead of recomputing them. QAVAT_STORE=0 restores the old
// in-process-only behavior.
//
// Misses go through the store's work-claim protocol (DESIGN.md §14):
// the cache claims the right to produce the artifact, trains/evaluates,
// publishes, and releases — while waiters back off until the artifact
// appears (or the lease goes stale and is reclaimed). N concurrent
// processes sharing one store therefore train each unit exactly once.
// A corrupt artifact is quarantined by the store and recomputed here,
// counting toward StoreStats::retrains_after_corruption — corruption is
// healed, never served and never fatal.
#pragma once

#include <functional>
#include <memory>
#include <string>

#include "core/selftune/selftune.h"
#include "core/train/trainer.h"
#include "data/synth.h"
#include "eval/evaluator.h"

namespace qavat {

/// True when QAVAT_FAST=1 (or any non-empty value but "0") is set in the
/// environment: smaller datasets, fewer epochs, fewer Monte-Carlo chips.
bool fast_mode();

/// Memoize a full Monte-Carlo evaluation under `key`: the per-chip
/// accuracy vector persists (memory, then disk store) and the summary
/// stats are recomputed from it, so a warm hit reproduces the cold
/// EvalStats bit-identically. `*computed` (optional) reports whether fn
/// actually ran.
EvalStats with_eval_cache(const std::string& key,
                          const std::function<EvalStats()>& fn,
                          bool* computed = nullptr);

/// Drop all cached results and models (mainly for tests). With
/// `drop_disk`, also delete this schema's subtree of the on-disk store.
void clear_experiment_caches(bool drop_disk = false);

/// Number of train() invocations this process has executed through the
/// cached training entry points (QAT pretraining, QAVAT fine-tuning and
/// the PTQ-VAT phases each count once). A fully warm-store run stays at
/// 0 — the property the CI cold/warm gate asserts.
index_t training_runs();

struct TrainedModel {
  std::unique_ptr<Module> model;
  double clean_test_acc = 0.0;
  bool trained = false;     ///< this call ran at least one train() phase
  bool from_store = false;  ///< requested model was loaded from disk
};

/// Train through the model cache with the paper's two-phase recipe: QAT
/// pretraining (shared across algorithms via its own cache entry), then —
/// for kQAVAT — noisy-forward fine-tuning at half the learning rate.
/// Returns a private clone; callers may mutate or reset it freely.
TrainedModel train_cached(ModelKind kind, const ModelConfig& mcfg,
                          TrainAlgo algo, const SplitDataset& data,
                          const TrainConfig& tcfg);

/// The paper's "VAT" baseline: variability-aware training of the *float*
/// model, then post-training quantization with MMSE scales.
TrainedModel train_ptq_vat_cached(ModelKind kind, const ModelConfig& mcfg,
                                  const SplitDataset& data,
                                  const TrainConfig& tcfg);

/// The canonical model-cache/store key of ONE cached training phase —
/// exactly the key train_cached / train_ptq_vat_cached use for (kind,
/// mcfg, algo token, dataset, tcfg), and therefore the claim unit the
/// work-claim protocol serializes producers on. `algo` is the cache
/// token: "QAT", "QAVAT" or "PTQVAT". Exposed so the claim-aware
/// scheduler (Session::run_manifest) and tests can probe a unit's
/// claim/artifact state non-destructively instead of entering the
/// blocking read-through path.
std::string train_cache_key(ModelKind kind, const ModelConfig& mcfg,
                            const char* algo, const SplitDataset& data,
                            const TrainConfig& tcfg);

ModelConfig default_model_config(ModelKind kind, index_t a_bits, index_t w_bits);
TrainConfig default_train_config(ModelKind kind);
EvalConfig default_eval_config(ModelKind kind);
SplitDataset make_dataset_for(ModelKind kind);

}  // namespace qavat
