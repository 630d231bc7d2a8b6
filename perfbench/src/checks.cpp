#include "checks.h"

#include <cstdio>
#include <cstring>
#include <set>

namespace perfbench {

using qavat::index_t;

namespace {

bool fail(std::string* why, const std::string& msg) {
  if (why != nullptr) *why = msg;
  return false;
}

bool in_unit_range(double x) { return x >= 0.0 && x <= 1.0; }

std::string num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

}  // namespace

bool check_identical(const std::vector<double>& a, const std::vector<double>& b,
                     std::string* why) {
  if (a.size() != b.size()) {
    return fail(why, "sizes differ: " + std::to_string(a.size()) + " vs " +
                         std::to_string(b.size()));
  }
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!same_bits(a[i], b[i])) {
      return fail(why, "entry " + std::to_string(i) + " differs: " + num(a[i]) +
                           " vs " + num(b[i]));
    }
  }
  return true;
}

bool check_eval_stats(const qavat::EvalStats& s, index_t expected_chips,
                      std::string* why) {
  if (s.n_chips != expected_chips ||
      s.per_chip_acc.size() != static_cast<std::size_t>(expected_chips)) {
    return fail(why, "expected " + std::to_string(expected_chips) +
                         " chips, got n_chips=" + std::to_string(s.n_chips) +
                         " with " + std::to_string(s.per_chip_acc.size()) +
                         " per-chip entries");
  }
  for (std::size_t i = 0; i < s.per_chip_acc.size(); ++i) {
    if (!in_unit_range(s.per_chip_acc[i])) {
      return fail(why, "per_chip_acc[" + std::to_string(i) + "] = " +
                           num(s.per_chip_acc[i]) + " outside [0, 1]");
    }
  }
  for (double x : {s.accuracy.mean, s.accuracy.min, s.accuracy.max}) {
    if (!in_unit_range(x)) return fail(why, "accuracy stat " + num(x) + " outside [0, 1]");
  }
  return true;
}

bool check_scenario(const qavat::ScenarioResult& r,
                    const qavat::ScenarioSpec& spec, std::string* why) {
  if (!in_unit_range(r.clean_acc) || !in_unit_range(r.mean_acc)) {
    return fail(why, "clean_acc " + num(r.clean_acc) + " / mean_acc " +
                         num(r.mean_acc) + " outside [0, 1]");
  }
  if (!spec.deploy.enabled()) return true;
  return check_eval_stats(r.mc, spec.eval.n_chips, why);
}

bool check_warm_reload(const qavat::ScenarioResult& cold,
                       const qavat::ScenarioResult& warm, std::string* why) {
  if (warm.trained || warm.eval_computed) {
    return fail(why, std::string("reload was not served from the store (") +
                         (warm.trained ? "trained" : "eval computed") + ")");
  }
  if (cold.key != warm.key) return fail(why, "keys differ");
  if (!same_bits(cold.clean_acc, warm.clean_acc) ||
      !same_bits(cold.mean_acc, warm.mean_acc)) {
    return fail(why, "clean/mean accuracy differs: " + num(cold.mean_acc) +
                         " vs " + num(warm.mean_acc));
  }
  if (cold.mc.n_chips != warm.mc.n_chips) return fail(why, "n_chips differs");
  return check_identical(cold.mc.per_chip_acc, warm.mc.per_chip_acc, why);
}

bool check_train_runs(index_t actual, index_t expected, std::string* why) {
  if (actual == expected) return true;
  return fail(why, "training_runs() grew by " + std::to_string(actual) +
                       ", claim units imply " + std::to_string(expected));
}

index_t expected_training_runs(qavat::Session& session,
                               const std::vector<qavat::ScenarioSpec>& specs) {
  std::set<std::string> seen;
  index_t runs = 0;
  for (const qavat::ScenarioSpec& spec : specs) {
    for (const qavat::ClaimUnitRef& u : session.claim_units(spec)) {
      if (std::strcmp(u.bucket, "models") != 0) continue;
      if (!seen.insert(u.key).second || qavat::store_has(u.bucket, u.key)) {
        continue;
      }
      runs += spec.algo == qavat::ScenarioAlgo::kPTQVAT ? 2 : 1;
    }
  }
  return runs;
}

namespace {

std::string counters_text(const qavat::SessionCounters& a,
                          const qavat::SessionCounters& b) {
  return "scenarios +" + std::to_string(b.scenarios - a.scenarios) +
         ", trained +" + std::to_string(b.trained - a.trained) +
         ", model_store_hits +" +
         std::to_string(b.model_store_hits - a.model_store_hits) +
         ", evals_computed +" +
         std::to_string(b.evals_computed - a.evals_computed) +
         ", eval_cache_hits +" +
         std::to_string(b.eval_cache_hits - a.eval_cache_hits);
}

}  // namespace

bool check_cold_counters(const qavat::SessionCounters& before,
                         const qavat::SessionCounters& after, index_t n,
                         index_t evals, std::string* why) {
  if (after.scenarios - before.scenarios == n &&
      after.evals_computed - before.evals_computed == evals &&
      after.eval_cache_hits == before.eval_cache_hits &&
      after.model_store_hits == before.model_store_hits) {
    return true;
  }
  return fail(why, "cold pass of " + std::to_string(n) + " scenarios (" +
                       std::to_string(evals) + " with an eval): " +
                       counters_text(before, after));
}

bool check_warm_counters(const qavat::SessionCounters& before,
                         const qavat::SessionCounters& after, index_t n,
                         index_t evals, std::string* why) {
  if (after.scenarios - before.scenarios == n &&
      after.trained == before.trained &&
      after.evals_computed == before.evals_computed &&
      after.eval_cache_hits - before.eval_cache_hits == evals) {
    return true;
  }
  return fail(why, "warm replay of " + std::to_string(n) + " scenarios (" +
                       std::to_string(evals) + " with an eval): " +
                       counters_text(before, after));
}

index_t count_evals(const std::vector<qavat::ScenarioSpec>& specs) {
  index_t n = 0;
  for (const qavat::ScenarioSpec& s : specs) n += s.deploy.enabled() ? 1 : 0;
  return n;
}

bool check_store_clean(const qavat::StoreVerifyResult& v,
                       const qavat::StoreStats& s, std::string* why) {
  if (v.corrupt != 0) {
    return fail(why, std::to_string(v.corrupt) + " corrupt artifact(s), first " +
                         v.corrupt_paths.front());
  }
  if (s.writes_failed != 0 || s.loads_corrupt != 0) {
    return fail(why, "writes_failed=" + std::to_string(s.writes_failed) +
                         " loads_corrupt=" + std::to_string(s.loads_corrupt));
  }
  return true;
}

bool check_fleet_rows(const qavat::FleetTrajectory& t, index_t expected_rows,
                      std::string* why) {
  if (t.checkpoints.size() != static_cast<std::size_t>(expected_rows)) {
    return fail(why, "expected " + std::to_string(expected_rows) + " rows, got " +
                         std::to_string(t.checkpoints.size()));
  }
  index_t prev_retunes = 0;
  for (std::size_t i = 0; i < t.checkpoints.size(); ++i) {
    const qavat::FleetCheckpoint& c = t.checkpoints[i];
    const std::string row = "row " + std::to_string(i) + ": ";
    if (!(c.min <= c.p5 && c.p5 <= c.p50 && c.p50 <= c.p95 && c.p95 <= c.max)) {
      return fail(why, row + "quantiles out of order (min " + num(c.min) +
                           " p5 " + num(c.p5) + " p50 " + num(c.p50) + " p95 " +
                           num(c.p95) + " max " + num(c.max) + ")");
    }
    if (!(c.min <= c.mean && c.mean <= c.max) || !in_unit_range(c.min) ||
        !in_unit_range(c.max)) {
      return fail(why, row + "mean/min/max outside [min, max] or [0, 1]");
    }
    if (c.retunes < prev_retunes) {
      return fail(why, row + "retunes decreased from " +
                           std::to_string(prev_retunes) + " to " +
                           std::to_string(c.retunes));
    }
    prev_retunes = c.retunes;
  }
  return true;
}

bool check_fleet_cold(const qavat::FleetRunResult& r, index_t windows,
                      std::string* why) {
  if (!r.loaded && !r.trained && r.resumed_from_step == 0 &&
      r.snapshots_published == windows) {
    return true;
  }
  return fail(why, "expected a cold study publishing " +
                       std::to_string(windows) + " snapshots, got loaded=" +
                       std::to_string(r.loaded) + " trained=" +
                       std::to_string(r.trained) + " resumed_from=" +
                       std::to_string(r.resumed_from_step) + " snapshots=" +
                       std::to_string(r.snapshots_published));
}

bool Checker::expect(bool ok, const char* check, const std::string& unit,
                     const std::string& why) {
  auto& c = counts_[check];
  if (ok) {
    ++c.first;
    return true;
  }
  ++c.second;
  ++failures_;
  std::fprintf(stderr, "check %s failed on %s: %s\n", check, unit.c_str(),
               why.c_str());
  return false;
}

std::string Checker::summary_json() const {
  std::string out;
  for (const auto& kv : counts_) {
    if (!out.empty()) out += ",";
    out += "\"" + kv.first + "\":{\"passed\":" + std::to_string(kv.second.first) +
           ",\"failed\":" + std::to_string(kv.second.second) + "}";
  }
  return out;
}

}  // namespace perfbench
