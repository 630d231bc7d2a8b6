// Correctness checks of the benchmark. Each check rests only on a
// contract the library documents, so it holds for every seed:
//
//   chip_batch_identity    per-chip accuracies are bit-identical for any
//                          chip_batch (eval/evaluator.h) or fleet chip
//                          batch (eval/fleet.h)
//   train_runs_match_claims training_runs() grows by exactly the training
//                          phases of the claim units a cold pass must
//                          produce (eval/experiment.h, eval/runner.h)
//   session_counters       SessionCounters agree with a cold pass (every
//                          eval computed) or a warm replay (nothing trained
//                          or computed)
//   warm_reload_identical  a store reload reproduces the cold result
//                          bit-identically, without training or eval
//   store_clean            store_verify_all finds no corrupt artifact and
//                          no write or load failed
//   acc_range              accuracies lie in [0, 1] and per_chip_acc has
//                          n_chips entries
//   fleet_rows             min <= p5 <= p50 <= p95 <= max per checkpoint,
//                          mean within [min, max], retunes never decrease
//
// None depends on an accuracy level or on the paper's orderings. Each
// function returns false and fills *why on failure; Checker reports the
// failing check by name together with the unit it failed on.
#pragma once

#include <map>
#include <string>
#include <vector>

#include "eval/fleet.h"
#include "eval/runner.h"
#include "eval/store.h"

namespace perfbench {

/// Bitwise equality of two double vectors (sizes included).
bool check_identical(const std::vector<double>& a, const std::vector<double>& b,
                     std::string* why);

/// Every accuracy of `s` in [0, 1] and per_chip_acc.size() == n_chips ==
/// `expected_chips`.
bool check_eval_stats(const qavat::EvalStats& s, qavat::index_t expected_chips,
                      std::string* why);

/// check_eval_stats on a scenario result (when its eval ran) plus
/// clean_acc and mean_acc in [0, 1].
bool check_scenario(const qavat::ScenarioResult& r,
                    const qavat::ScenarioSpec& spec, std::string* why);

/// `warm` was served from the store (no training, no eval) and equals
/// `cold` bit for bit.
bool check_warm_reload(const qavat::ScenarioResult& cold,
                       const qavat::ScenarioResult& warm, std::string* why);

/// actual == expected for the process-wide training phase count.
bool check_train_runs(qavat::index_t actual, qavat::index_t expected,
                      std::string* why);

/// Training phases a cold pass over `specs` must run: one per new QAT or
/// QAVAT model claim unit, two per new PTQ-VAT unit (its float pretrain
/// and float VAT phases), where "new" means not yet in the store and not
/// produced by an earlier spec of the same pass.
qavat::index_t expected_training_runs(qavat::Session& session,
                                      const std::vector<qavat::ScenarioSpec>& specs);

/// A cold pass of n scenarios, `evals` of them with deployment noise: n
/// scenarios run, `evals` evals computed, no eval cache hit and no model
/// loaded from the store.
bool check_cold_counters(const qavat::SessionCounters& before,
                         const qavat::SessionCounters& after, qavat::index_t n,
                         qavat::index_t evals, std::string* why);

/// A warm replay of n scenarios, `evals` of them with deployment noise:
/// nothing trained, no eval computed, `evals` evals served from the store.
bool check_warm_counters(const qavat::SessionCounters& before,
                         const qavat::SessionCounters& after, qavat::index_t n,
                         qavat::index_t evals, std::string* why);

/// Specs of `specs` with deployment noise (the ones that run an MC eval).
qavat::index_t count_evals(const std::vector<qavat::ScenarioSpec>& specs);

/// No corrupt artifact, no failed write, no corrupt load.
bool check_store_clean(const qavat::StoreVerifyResult& v,
                       const qavat::StoreStats& s, std::string* why);

/// Row count, per-row quantile order, accuracies in [0, 1] and
/// non-decreasing retunes.
bool check_fleet_rows(const qavat::FleetTrajectory& t,
                      qavat::index_t expected_rows, std::string* why);

/// A fresh study: computed from factory state (not loaded, no training,
/// no resume) and publishing one snapshot per checkpoint window.
bool check_fleet_cold(const qavat::FleetRunResult& r, qavat::index_t windows,
                      std::string* why);

/// Collects check outcomes. A failure is printed to stderr as
/// "check <name> failed on <unit>: <why>".
class Checker {
 public:
  /// Record one outcome; returns `ok`.
  bool expect(bool ok, const char* check, const std::string& unit,
              const std::string& why);

  int failures() const { return failures_; }

  /// Passed / failed counts per check name, as a JSON object body.
  std::string summary_json() const;

 private:
  int failures_ = 0;
  std::map<std::string, std::pair<long long, long long>> counts_;
};

}  // namespace perfbench
