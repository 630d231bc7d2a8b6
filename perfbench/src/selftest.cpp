// The benchmark's own tests (`qbench selftest`, or `run.py --selftest`):
//   * the same seed gives byte-identical manifests, specs and datasets;
//   * different seeds, and different passes of one seed, give disjoint
//     store keys, so every pass is cold;
//   * every correctness check passes on real outputs and fails on a
//     planted fault (a flipped byte in a stored artifact, a perturbed
//     result, a miscounted counter).
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <set>
#include <string>

#include "checks.h"
#include "eval/experiment.h"
#include "gen.h"

namespace perfbench {

using qavat::index_t;
using qavat::ScenarioResult;
using qavat::ScenarioSpec;

namespace {

int g_passed = 0;
int g_failed = 0;

void expect(bool ok, const std::string& name, const std::string& detail = "") {
  if (ok) {
    ++g_passed;
    std::printf("selftest %s: ok\n", name.c_str());
  } else {
    ++g_failed;
    std::printf("selftest %s: FAILED %s\n", name.c_str(), detail.c_str());
  }
}

// A check passes on the real value and fails on the planted one.
void expect_check(const std::string& check, bool real_ok,
                  const std::string& real_why, bool planted_ok) {
  expect(real_ok, check + " passes on real output", real_why);
  expect(!planted_ok, check + " fails on planted fault");
}

std::string artifact_path(const char* bucket, const std::string& key) {
  return qavat::store_root() + "/v" + std::to_string(qavat::kStoreSchemaVersion) +
         (qavat::fast_mode() ? "/fast/" : "/full/") + bucket + "/" +
         qavat::store_key_filename(key);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
}

// Bump the first significant digit of the last value line of a text
// artifact: the file still parses, but one stored number changed.
bool flip_last_value_digit(const std::string& path) {
  std::string b = read_file(path);
  while (!b.empty() && b.back() == '\n') b.pop_back();
  const std::size_t line = b.find_last_of('\n');
  if (line == std::string::npos) return false;
  for (std::size_t i = line + 1; i < b.size(); ++i) {
    const char c = b[i];
    if (c >= '1' && c <= '9' ) {
      b[i] = c == '9' ? '8' : static_cast<char>(c + 1);
      write_file(path, b + "\n");
      return true;
    }
  }
  return false;
}

bool flip_middle_byte(const std::string& path) {
  std::string b = read_file(path);
  if (b.empty()) return false;
  b[b.size() / 2] = static_cast<char>(b[b.size() / 2] ^ 0x01);
  write_file(path, b);
  return true;
}

std::set<std::string> keys_of(qavat::Session& session, std::uint64_t seed,
                              index_t pass) {
  std::set<std::string> keys;
  for (const ScenarioSpec& s : sweep_manifest(seed, pass).specs) {
    keys.insert(s.key());
    for (const qavat::ClaimUnitRef& u : session.claim_units(s)) keys.insert(u.key);
  }
  for (auto b : {qavat::EvalBackend::kWeightDomain, qavat::EvalBackend::kInt8,
                 qavat::EvalBackend::kCircuit}) {
    for (const ScenarioSpec& s : mc_specs(seed, pass, b)) keys.insert(s.key());
  }
  keys.insert(fleet_study(seed, pass).key());
  return keys;
}

bool disjoint(const std::set<std::string>& a, const std::set<std::string>& b) {
  for (const std::string& k : a) {
    if (b.count(k) != 0) return false;
  }
  return true;
}

void test_generators(qavat::Session& session) {
  bool same = true;
  for (std::uint64_t seed : {1ULL, 987654321ULL}) {
    for (index_t pass : {0, 1}) {
      same &= sweep_manifest(seed, pass).to_json() ==
              sweep_manifest(seed, pass).to_json();
      same &= fleet_study(seed, pass).to_json() == fleet_study(seed, pass).to_json();
      for (auto b : {qavat::EvalBackend::kWeightDomain, qavat::EvalBackend::kInt8,
                     qavat::EvalBackend::kCircuit}) {
        const auto x = mc_specs(seed, pass, b);
        const auto y = mc_specs(seed, pass, b);
        for (std::size_t i = 0; i < x.size(); ++i) same &= x[i].to_json() == y[i].to_json();
      }
    }
    for (qavat::ModelKind k : {qavat::ModelKind::kLeNet5s, qavat::ModelKind::kVGG11s}) {
      const qavat::SplitDataset a = mc_dataset(k, seed);
      const qavat::SplitDataset b = mc_dataset(k, seed);
      same &= a.train.labels == b.train.labels &&
              std::memcmp(a.train.images.data(), b.train.images.data(),
                          sizeof(float) * static_cast<std::size_t>(
                                              a.train.images.size())) == 0;
    }
  }
  expect(same, "same seed gives byte-identical manifests, specs and datasets");

  const auto k1 = keys_of(session, 1, 0);
  expect(disjoint(k1, keys_of(session, 2, 0)),
         "different seeds give disjoint store keys");
  expect(disjoint(k1, keys_of(session, 1, 1)),
         "different passes of one seed give disjoint store keys");
  expect(sweep_manifest(1, 0).to_json() != sweep_manifest(2, 0).to_json(),
         "different seeds give different manifests");
}

void test_pure_checks() {
  std::string why;
  const std::vector<double> v = {0.25, 0.5, 0.75};
  std::vector<double> planted = v;
  planted[1] = std::nextafter(planted[1], 1.0);
  expect(!check_identical(v, planted, nullptr),
         "chip_batch_identity fails on planted fault");

  expect_check("train_runs_match_claims", check_train_runs(4, 4, &why), why,
               check_train_runs(5, 4, nullptr));

  qavat::SessionCounters a, cold, warm;
  cold.scenarios = 2;
  cold.evals_computed = 2;
  cold.trained = 2;
  warm.scenarios = 2;
  warm.eval_cache_hits = 2;
  qavat::SessionCounters cold_bad = cold, warm_bad = warm;
  cold_bad.eval_cache_hits = 1;
  warm_bad.trained = 1;
  expect_check("session_counters (cold)", check_cold_counters(a, cold, 2, 2, &why),
               why, check_cold_counters(a, cold_bad, 2, 2, nullptr));
  expect_check("session_counters (warm)", check_warm_counters(a, warm, 2, 2, &why),
               why, check_warm_counters(a, warm_bad, 2, 2, nullptr));
}

void test_store_checks(qavat::Session& session, std::uint64_t seed) {
  // One LeNet-5s QAT scenario, cold, then reloaded.
  ScenarioSpec spec = sweep_manifest(seed, 7).specs.at(1);
  spec.eval.n_chips = 3;
  spec.eval.max_test_samples = 64;
  qavat::SweepManifest one;
  one.name = "selftest";
  one.specs = {spec};
  const index_t expected = expected_training_runs(session, one.specs);
  const index_t runs0 = qavat::training_runs();
  const ScenarioResult cold = session.run_manifest(one).at(0);
  std::string why;
  expect(check_train_runs(qavat::training_runs() - runs0, expected, &why),
         "train_runs_match_claims on a real cold scenario", why);

  ScenarioResult bad = cold;
  bad.mc.per_chip_acc[0] = 1.5;
  ScenarioResult short_result = cold;
  short_result.mc.per_chip_acc.pop_back();
  expect_check("acc_range", check_scenario(cold, spec, &why), why,
               check_scenario(bad, spec, nullptr));
  expect(!check_scenario(short_result, spec, nullptr),
         "acc_range fails on a missing per-chip entry");

  expect(check_store_clean(qavat::store_verify_all(false), qavat::store_stats(), &why),
         "store_clean passes on real output", why);

  // The trained model at the default chip batch against one chip at a time.
  qavat::TrainedModel tm = session.train_model(spec);
  qavat::EvalConfig batched = spec.eval;
  batched.chip_batch = 0;
  qavat::EvalConfig sequential = batched;
  sequential.chip_batch = 1;
  const qavat::Dataset& test = session.dataset(spec.model).test;
  expect(check_identical(
             qavat::evaluate_under_variability(*tm.model, test, spec.deploy, batched)
                 .per_chip_acc,
             qavat::evaluate_under_variability(*tm.model, test, spec.deploy, sequential)
                 .per_chip_acc,
             &why),
         "chip_batch_identity passes on a real model", why);

  qavat::clear_experiment_caches(false);
  const ScenarioResult warm = session.run_manifest(one).at(0);
  expect(check_warm_reload(cold, warm, &why),
         "warm_reload_identical passes on real output", why);

  expect(flip_last_value_digit(artifact_path("evals", spec.key())),
         "planting a flipped digit in the stored eval artifact");
  qavat::clear_experiment_caches(false);
  const ScenarioResult tampered = session.run_manifest(one).at(0);
  expect(!check_warm_reload(cold, tampered, nullptr),
         "warm_reload_identical fails on a flipped stored digit");

  const std::vector<qavat::ClaimUnitRef> units = session.claim_units(spec);
  expect(flip_middle_byte(artifact_path(units.at(0).bucket, units.at(0).key)),
         "planting a flipped byte in the stored model artifact");
  expect(!check_store_clean(qavat::store_verify_all(false), qavat::store_stats(),
                            nullptr),
         "store_clean fails on a flipped stored byte");
  qavat::clear_experiment_caches(true);
}

void test_fleet_checks(qavat::Session& session, std::uint64_t seed) {
  qavat::FleetStudySpec spec = fleet_study(seed, 0);
  spec.lifetime.n_chips = 4;
  spec.lifetime.n_steps = 8;
  spec.lifetime.checkpoint_every = 4;
  qavat::FleetEvaluator fe(session);
  session.train_model(spec.scenario);
  const qavat::FleetRunResult r = fe.run(spec);
  std::string why;
  qavat::FleetTrajectory bad = r.trajectory;
  bad.checkpoints.at(0).p5 = bad.checkpoints.at(0).max + 0.1;
  expect_check("fleet_rows (quantile order)", check_fleet_rows(r.trajectory, 2, &why),
               why, check_fleet_rows(bad, 2, nullptr));
  bad = r.trajectory;
  bad.checkpoints.at(1).retunes = bad.checkpoints.at(0).retunes - 1;
  expect(!check_fleet_rows(bad, 2, nullptr),
         "fleet_rows (retunes) fails on planted fault");
  qavat::FleetRunResult loaded = r;
  loaded.loaded = true;
  expect_check("fleet_cold_study", check_fleet_cold(r, 2, &why), why,
               check_fleet_cold(loaded, 2, nullptr));
}

}  // namespace

int run_selftest(const std::string& work_dir) {
  setenv("QAVAT_STORE_DIR", (work_dir + "/selftest_store").c_str(), 1);
  qavat::clear_experiment_caches(true);
  qavat::Session session;
  test_generators(session);
  test_pure_checks();
  test_store_checks(session, 31337);
  test_fleet_checks(session, 31337);
  std::printf("selftest: %d passed, %d failed\n", g_passed, g_failed);
  return g_failed == 0 ? 0 : 1;
}

}  // namespace perfbench
