// Direct Session coverage over the runner/claim stack: run_manifest's
// manifest-order bit-identity against a sequential run() loop (cold and
// warm), provenance counter aggregation (counters()), failure
// surfacing with nothing executing past the failing spec, and the
// claim-aware scheduler's busy-skip behavior — a unit whose claim is
// held elsewhere is deferred, not waited on, and results still return
// in manifest order. Runs against a private temp store (QAVAT_STORE
// cleared and QAVAT_STORE_DIR set first thing in main, before any store
// call).
#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "eval/manifest.h"
#include "eval/runner.h"
#include "eval/store.h"
#include "tests/test_common.h"

using namespace qavat;
namespace fs = std::filesystem;

namespace {

// Tiny-but-real scenario: one epoch, two Monte-Carlo chips, a handful
// of test samples — enough to exercise every cache/claim path fast.
ScenarioSpec tiny_spec(std::uint64_t init_seed, double sigma) {
  ScenarioSpec s = ScenarioSpec::within(ModelKind::kLeNet5s, 4, 4,
                                        ScenarioAlgo::kQAVAT,
                                        VarianceModel::kWeightProportional,
                                        sigma);
  s.model_cfg.init_seed = init_seed;
  s.train.epochs = 1;
  s.eval.n_chips = 2;
  s.eval.max_test_samples = 32;
  return s;
}

// Clean-only (no deploy noise) QAT spec: exactly one claim unit, the
// QAT pretrain model — the minimal unit for scheduler probes.
ScenarioSpec clean_qat_spec(std::uint64_t init_seed) {
  ScenarioSpec s = ScenarioSpec::base(ModelKind::kLeNet5s, 4, 4,
                                      ScenarioAlgo::kQAT);
  s.model_cfg.init_seed = init_seed;
  s.train.epochs = 1;
  return s;
}

bool results_identical(const ScenarioResult& a, const ScenarioResult& b) {
  return a.key == b.key && a.clean_acc == b.clean_acc &&
         a.mean_acc == b.mean_acc &&
         a.mc.accuracy.mean == b.mc.accuracy.mean &&
         a.mc.accuracy.stddev == b.mc.accuracy.stddev &&
         a.mc.n_chips == b.mc.n_chips;
}

SweepManifest manifest_of(const char* name,
                          const std::vector<ScenarioSpec>& specs) {
  SweepManifest m;
  m.name = name;
  m.specs = specs;
  return m;
}

void test_run_manifest_matches_run_loop() {
  const SweepManifest m =
      manifest_of("test", {tiny_spec(11, 0.1), tiny_spec(22, 0.3)});
  const std::vector<ScenarioSpec>& specs = m.specs;

  // Cold sequential reference.
  clear_experiment_caches(true);
  Session loop_session;
  std::vector<ScenarioResult> loop_results;
  for (const ScenarioSpec& s : specs) loop_results.push_back(loop_session.run(s));

  // Cold run_manifest (uncontended) on a re-dropped store: same
  // numbers, manifest order, same provenance, in-order completion.
  clear_experiment_caches(true);
  Session cold_session;
  SweepSchedule schedule;
  const std::vector<ScenarioResult> cold_results =
      cold_session.run_manifest(m, &schedule);
  CHECK(cold_results.size() == specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    CHECK(cold_results[i].key == specs[i].key());
    CHECK(results_identical(cold_results[i], loop_results[i]));
    CHECK(cold_results[i].trained);
    CHECK(cold_results[i].eval_computed);
  }
  CHECK(schedule.completion_order.size() == specs.size());
  CHECK(schedule.completion_order[0] == 0);
  CHECK(schedule.completion_order[1] == 1);
  CHECK(schedule.deferrals == 0);
  CHECK(schedule.wait_rounds == 0);
  const SessionCounters cold = cold_session.counters();
  CHECK(cold.scenarios == 2);
  CHECK(cold.trained == 2);
  CHECK(cold.evals_computed == 2);
  CHECK(cold.eval_cache_hits == 0);

  // Warm run_manifest through the store (memory caches dropped):
  // nothing trains or evaluates, numbers bit-identical.
  clear_experiment_caches(false);
  Session warm_session;
  const std::vector<ScenarioResult> warm_results = warm_session.run_manifest(m);
  CHECK(warm_results.size() == specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    CHECK(results_identical(warm_results[i], loop_results[i]));
    CHECK(!warm_results[i].trained);
    CHECK(warm_results[i].model_from_store);
    CHECK(!warm_results[i].eval_computed);
  }
  const SessionCounters warm = warm_session.counters();
  CHECK(warm.scenarios == 2);
  CHECK(warm.trained == 0);
  CHECK(warm.model_store_hits == 2);
  CHECK(warm.evals_computed == 0);
  CHECK(warm.eval_cache_hits == 2);
}

void test_failure_position() {
  clear_experiment_caches(true);
  // The bad spec's model geometry disagrees with the workload dataset
  // (image_size +4), so its first forward pass hits the always-on layer
  // input-shape check — a deterministic std::invalid_argument mid-grid.
  ScenarioSpec bad = tiny_spec(33, 0.2);
  bad.model_cfg.image_size += 4;
  const SweepManifest m =
      manifest_of("failure", {tiny_spec(44, 0.1), bad, tiny_spec(55, 0.3)});

  Session session;
  SweepSchedule schedule;
  bool threw = false;
  try {
    session.run_manifest(m, &schedule);
  } catch (const std::invalid_argument&) {
    threw = true;
  }
  CHECK(threw);
  // Sequential semantics: the spec before the failure completed, the
  // one after it never started.
  CHECK(session.counters().scenarios == 1);
  CHECK(schedule.completion_order.size() == 1);
  const std::vector<ClaimUnitRef> after = session.claim_units(m.specs[2]);
  CHECK(!after.empty());
  CHECK(!store_has(after[0].bucket, after[0].key));
  // And the completed spec's artifacts did publish.
  for (const ClaimUnitRef& u : session.claim_units(m.specs[0])) {
    CHECK(store_has(u.bucket, u.key));
  }
}

void test_scheduler_busy_skip() {
  clear_experiment_caches(true);
  const SweepManifest m =
      manifest_of("busy_skip", {clean_qat_spec(101), clean_qat_spec(202)});
  const std::vector<ScenarioSpec>& specs = m.specs;

  Session probe_session;
  const std::string key0 = probe_session.claim_units(specs[0])[0].key;
  const std::string key1 = probe_session.claim_units(specs[1])[0].key;
  CHECK(key0 != key1);

  // Hold spec 0's claim like a concurrent producer would, then run the
  // scheduler in another thread: it must defer spec 0, run spec 1, and
  // only come back to spec 0 once the claim is dropped.
  StoreClaimStatus status = StoreClaimStatus::kUnavailable;
  StoreClaim held = store_try_claim("models", key0, &status);
  CHECK(status == StoreClaimStatus::kAcquired);
  CHECK(held.held());
  CHECK(store_claim_busy("models", key0));

  SweepSchedule schedule;
  std::vector<ScenarioResult> results;
  std::thread runner([&] {
    Session session;
    results = session.run_manifest(m, &schedule);
  });

  // Wait (bounded) for the scheduler to finish the unblocked spec,
  // then release the lease so it can drain spec 0.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(120);
  while (!store_has("models", key1) &&
         std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  CHECK(store_has("models", key1));
  held.release();
  runner.join();

  // Manifest-order results, out-of-order execution.
  CHECK(results.size() == 2);
  CHECK(results[0].key == specs[0].key());
  CHECK(results[1].key == specs[1].key());
  CHECK(schedule.completion_order.size() == 2);
  CHECK(schedule.completion_order[0] == 1);
  CHECK(schedule.completion_order[1] == 0);
  CHECK(schedule.deferrals >= 1);
}

}  // namespace

int main() {
  // Private store, enabled (whatever QAVAT_STORE this process
  // inherited), before any store call; fast claim backoff so the drain
  // phase of the busy-skip test turns around quickly.
  ::unsetenv("QAVAT_STORE");
  const std::string store_dir =
      (fs::temp_directory_path() /
       ("qavat-test-runner-" + std::to_string(::getpid())))
          .string();
  ::setenv("QAVAT_STORE_DIR", store_dir.c_str(), 1);
  ::setenv("QAVAT_CLAIM_BACKOFF_MS", "5", 1);
  CHECK(store_enabled());
  std::error_code ec;
  fs::remove_all(store_dir, ec);

  test_run_manifest_matches_run_loop();
  test_failure_position();
  test_scheduler_busy_skip();

  fs::remove_all(store_dir, ec);
  return qavat::test::finish("test_runner");
}
