#include "eval/runner.h"

#include "eval/store.h"

#include <chrono>
#include <cstdio>
#include <utility>

namespace qavat {

namespace {

double seconds_since(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

TrainAlgo train_algo_for(ScenarioAlgo algo) {
  return algo == ScenarioAlgo::kQAT ? TrainAlgo::kQAT : TrainAlgo::kQAVAT;
}

// Advisory probe for the claim-aware scheduler: a spec is "blocked"
// when its FIRST unproduced claim unit has a live lease held elsewhere.
// Produced units are skipped (they will be store hits); the first
// unproduced, unclaimed unit makes the spec runnable — this process can
// contend for (or win) that claim immediately. Purely a heuristic for
// ordering local work: the work-claim protocol itself still arbitrates
// every producer, so a stale answer costs a wait, never a double train.
bool spec_blocked(const std::vector<ClaimUnitRef>& units) {
  for (const ClaimUnitRef& u : units) {
    if (store_has(u.bucket, u.key)) continue;
    return store_claim_busy(u.bucket, u.key);
  }
  return false;  // everything already produced: pure warm run
}

}  // namespace

const SplitDataset& Session::dataset(ModelKind kind) {
  auto it = datasets_.find(kind);
  if (it == datasets_.end()) {
    it = datasets_.emplace(kind, make_dataset_for(kind)).first;
  }
  return it->second;
}

TrainedModel Session::train_model(const ScenarioSpec& spec) {
  const SplitDataset& data = dataset(spec.model);
  const auto t0 = std::chrono::steady_clock::now();
  TrainedModel tm =
      spec.algo == ScenarioAlgo::kPTQVAT
          ? train_ptq_vat_cached(spec.model, spec.model_cfg, data, spec.train)
          : train_cached(spec.model, spec.model_cfg, train_algo_for(spec.algo),
                         data, spec.train);
  counters_.train_seconds += seconds_since(t0);
  if (tm.trained) ++counters_.trained;
  if (tm.from_store) ++counters_.model_store_hits;
  return tm;
}

ScenarioResult Session::run(const ScenarioSpec& spec) {
  ScenarioResult r;
  r.key = spec.key();
  const auto t0 = std::chrono::steady_clock::now();
  TrainedModel tm = train_model(spec);
  r.train_seconds = seconds_since(t0);
  r.trained = tm.trained;
  r.model_from_store = tm.from_store;
  r.clean_acc = tm.clean_test_acc;

  if (spec.deploy.enabled()) {
    const SplitDataset& data = dataset(spec.model);
    const SelfTuneConfig* st = spec.selftune_active() ? &spec.selftune : nullptr;
    const auto t1 = std::chrono::steady_clock::now();
    r.mc = with_eval_cache(
        r.key,
        [&] {
          return evaluate_under_variability(*tm.model, data.test, spec.deploy,
                                            spec.eval, st);
        },
        &r.eval_computed);
    r.eval_seconds = seconds_since(t1);
    counters_.eval_seconds += r.eval_seconds;
    if (r.eval_computed) {
      ++counters_.evals_computed;
    } else {
      ++counters_.eval_cache_hits;
    }
    r.mean_acc = r.mc.accuracy.mean;
  } else {
    // Clean-only scenario: the trained model's test accuracy is the
    // result (already cached with the model snapshot).
    r.mean_acc = r.clean_acc;
  }
  ++counters_.scenarios;
  return r;
}

std::vector<ClaimUnitRef> Session::claim_units(const ScenarioSpec& spec) {
  const SplitDataset& data = dataset(spec.model);
  std::vector<ClaimUnitRef> units;
  if (spec.algo == ScenarioAlgo::kPTQVAT) {
    units.push_back({"models", train_cache_key(spec.model, spec.model_cfg,
                                               "PTQVAT", data, spec.train)});
  } else {
    // Phase 1, always: the QAT pretrain unit, keyed with the noise
    // cleared — the same derivation train_cached applies.
    TrainConfig pre = spec.train;
    pre.train_noise = VariabilityConfig{};
    pre.n_variation_samples = 1;
    units.push_back({"models", train_cache_key(spec.model, spec.model_cfg,
                                               "QAT", data, pre)});
    // Phase 2 only when the spec actually fine-tunes; otherwise the
    // full key is a memory-only alias of the pretrain artifact.
    if (spec.algo == ScenarioAlgo::kQAVAT && spec.train.train_noise.enabled()) {
      units.push_back({"models", train_cache_key(spec.model, spec.model_cfg,
                                                 "QAVAT", data, spec.train)});
    }
  }
  if (spec.deploy.enabled()) units.push_back({"evals", spec.key()});
  return units;
}

std::vector<ScenarioResult> Session::run_manifest(const SweepManifest& manifest,
                                                  SweepSchedule* schedule) {
  const std::vector<ScenarioSpec>& specs = manifest.specs;
  std::vector<ScenarioResult> results(specs.size());
  SweepSchedule local;
  SweepSchedule& trace = schedule != nullptr ? *schedule : local;
  trace = SweepSchedule{};
  if (specs.empty()) return results;

  // Datasets up front (claim_units needs them anyway, and run() must
  // not race dataset() if a caller threads around this Session).
  for (const ScenarioSpec& spec : specs) dataset(spec.model);

  // Round-based greedy scheduler: run every pending spec whose next
  // unproduced claim unit is free, defer the busy ones, repeat. Only
  // when a whole round defers everything (all pending work is being
  // produced by other processes) does this process back off — and even
  // then it re-probes, because a peer publishing an artifact or
  // dropping a lease unblocks us with no notification channel.
  std::vector<index_t> pending(specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    pending[i] = static_cast<index_t>(i);
  }
  int backoff_attempt = 0;
  while (!pending.empty()) {
    std::vector<index_t> deferred;
    deferred.reserve(pending.size());
    for (const index_t idx : pending) {
      const ScenarioSpec& spec = specs[static_cast<std::size_t>(idx)];
      if (spec_blocked(claim_units(spec))) {
        ++trace.deferrals;
        deferred.push_back(idx);
        continue;
      }
      results[static_cast<std::size_t>(idx)] = run(spec);
      trace.completion_order.push_back(idx);
    }
    const bool progressed = deferred.size() < pending.size();
    pending = std::move(deferred);
    if (pending.empty()) break;
    if (!progressed) {
      ++trace.wait_rounds;
      store_claim_backoff_wait(backoff_attempt++);
    } else {
      backoff_attempt = 0;
    }
  }
  return results;
}

SessionCounters Session::counters() const { return counters_; }

void Session::print_summary(const char* name) const {
  // The trailing backend token tells the three backends' timings apart in
  // archived bench logs (it names the active QAVAT_EVAL_BACKEND, which
  // default_eval_config applied to every scenario of this session).
  // `trained` counts scenarios that ran any training; `train_runs` counts
  // the individual train() phases process-wide — the unit the work-claim
  // protocol deduplicates, so across N concurrent processes sharing one
  // cold store the train_runs SUM must equal a single-process cold run's
  // (the CI concurrent-sweep gate asserts exactly that).
  std::fprintf(
      stderr,
      "[qavat-session] %s: scenarios=%lld trained=%lld train_runs=%lld "
      "model_store_hits=%lld "
      "evals_computed=%lld eval_cache_hits=%lld train_s=%.2f eval_s=%.2f "
      "backend=%s\n",
      name, static_cast<long long>(counters_.scenarios),
      static_cast<long long>(counters_.trained),
      static_cast<long long>(training_runs()),
      static_cast<long long>(counters_.model_store_hits),
      static_cast<long long>(counters_.evals_computed),
      static_cast<long long>(counters_.eval_cache_hits),
      counters_.train_seconds, counters_.eval_seconds,
      to_string(eval_backend_from_env()));
  // Store health companion line: the per-category counters that replaced
  // the single-shot write warning, plus the serialize-layer envelope
  // checksum verification counters. All zeros on a healthy run.
  const StoreStats ss = store_stats();
  const SerializeReadStats rs = serialize_read_stats();
  std::fprintf(
      stderr,
      "[qavat-store] %s: writes_failed=%lld loads_corrupt=%lld "
      "claims_reclaimed=%lld retrains_after_corruption=%lld tmp_swept=%lld "
      "faults_injected=%lld envelopes_verified=%lld envelopes_failed=%lld\n",
      name, ss.writes_failed, ss.loads_corrupt, ss.claims_reclaimed,
      ss.retrains_after_corruption, ss.tmp_swept, ss.faults_injected,
      rs.envelopes_verified, rs.envelopes_failed);
}

}  // namespace qavat
