#include "workloads.h"

#include <algorithm>
#include <cstdlib>
#include <stdexcept>

#include "core/train/trainer.h"
#include "gen.h"

namespace perfbench {

using qavat::index_t;
using qavat::ModelKind;
using qavat::ScenarioResult;
using qavat::ScenarioSpec;
using Span = Tracer::Span;

void LoopStats::add(std::size_t slot, double wall, double cpu, double units) {
  request_s.push_back(wall);
  busy_s += wall;
  cpu_s += cpu;
  work += units;
  if (slot_cpu_s.size() <= slot) {
    slot_cpu_s.resize(slot + 1);
    slot_work.resize(slot + 1, 0.0);
  }
  slot_cpu_s[slot].push_back(cpu);
  slot_work[slot] = units;
}

double LoopStats::median_cycle_rate() const {
  double units = 0.0;
  double cpu = 0.0;
  for (std::size_t i = 0; i < slot_cpu_s.size(); ++i) {
    std::vector<double> v = slot_cpu_s[i];
    if (v.empty()) continue;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    cpu += n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
    units += slot_work[i];
  }
  return cpu > 0.0 ? units / cpu : 0.0;
}

namespace {

std::string kind_name(ModelKind k) { return qavat::to_string(k); }

std::string unit_name(const char* what, index_t cycle, std::size_t i) {
  return std::string(what) + " " + std::to_string(i) + " of cycle " +
         std::to_string(cycle);
}

// Eval-layer activity of one computed Monte-Carlo evaluation.
void note_eval(Activity& act, const ScenarioSpec& spec, double seconds) {
  const std::string p = std::string("eval.") + qavat::to_string(spec.eval.backend);
  const double chips = static_cast<double>(spec.eval.n_chips);
  act[p + ".busy_s"] += seconds;
  act[p + ".chips"] += chips;
  const char* side = spec.selftune_active() ? ".selftune" : ".plain";
  act[p + side + "_s"] += seconds;
  act[p + side + "_chips"] += chips;
}

void note_counters(Activity& act, const qavat::SessionCounters& a,
                   const qavat::SessionCounters& b) {
  act["session.trained"] += static_cast<double>(b.trained - a.trained);
  act["session.model_store_hits"] +=
      static_cast<double>(b.model_store_hits - a.model_store_hits);
  act["session.evals_computed"] +=
      static_cast<double>(b.evals_computed - a.evals_computed);
  act["session.eval_cache_hits"] +=
      static_cast<double>(b.eval_cache_hits - a.eval_cache_hits);
}

void expect_store_clean(const RunContext& ctx) {
  std::string why;
  const qavat::StoreVerifyResult v = qavat::store_verify_all(false);
  ctx.checker->expect(check_store_clean(v, qavat::store_stats(), &why),
                      "store_clean", "run store", why);
}

// ------------------------------------------------------------- sweeps

// Shared by the cold and warm sweeps: one Session per run (datasets are
// built in set-up), each scenario run as a one-spec manifest so its wall
// time is observable on its own.
class SweepBase : public Workload {
 public:
  const char* work_unit() const override { return "scenario"; }
  const char* request_unit() const override { return "scenario"; }

  void final_checks(const RunContext& ctx) override { expect_store_clean(ctx); }

 protected:
  void new_session(Tracer& tr) {
    session_ = std::make_unique<qavat::Session>();
    Span s(tr, "Session::dataset", "data");
    for (ModelKind k : {ModelKind::kLeNet5s, ModelKind::kVGG11s,
                        ModelKind::kResNet18s}) {
      session_->dataset(k);
    }
  }

  // Run one scenario; returns false (counted as a failed request) when it
  // threw or broke a per-scenario check.
  bool run_one(const RunContext& ctx, const qavat::SweepManifest& m,
               std::size_t i, index_t cycle, LoopStats& st, Activity& act,
               ScenarioResult* out) {
    const ScenarioSpec& spec = m.specs[i];
    const std::string unit = unit_name("scenario", cycle, i);
    qavat::SweepManifest one;
    one.name = m.name;
    one.specs = {spec};
    qavat::SweepSchedule sched;
    const index_t runs0 = qavat::training_runs();
    ++st.attempted;
    const Stopwatch sw;
    try {
      Span s(*ctx.tracer, "Session::run_manifest", "eval/runner");
      *out = session_->run_manifest(one, &sched).at(0);
    } catch (const std::exception& e) {
      ++st.failed;
      return ctx.checker->expect(false, "request_completes", unit, e.what());
    }
    const double wall = sw.wall_s();
    st.add(i, wall, sw.cpu_s(), 1.0);

    const ScenarioResult& r = *out;
    act["session.train_s"] += r.train_seconds;
    act["session.eval_s"] += r.eval_seconds;
    act["session.other_s"] += wall - r.train_seconds - r.eval_seconds;
    act["sweep.deferrals"] += static_cast<double>(sched.deferrals);
    const index_t runs = qavat::training_runs() - runs0;
    if (runs > 0) {
      // Phases run: a QAVAT fine-tune or PTQ-VAT VAT phase draws
      // n_variation_samples realizations per batch; the rest are QAT-style.
      const index_t noisy = spec.algo == qavat::ScenarioAlgo::kQAT ? 0 : 1;
      const double per_epoch =
          static_cast<double>(session_->dataset(spec.model).train.size()) *
          static_cast<double>(spec.train.epochs);
      const std::string p = "train." + kind_name(spec.model);
      act[p + ".busy_s"] += r.train_seconds;
      act[p + ".samples"] +=
          per_epoch * static_cast<double>(runs - noisy +
                                          noisy * spec.train.n_variation_samples);
      act["train.calls"] += static_cast<double>(runs);
    }
    if (r.eval_computed) note_eval(act, spec, r.eval_seconds);

    std::string why;
    if (!ctx.checker->expect(check_scenario(r, spec, &why), "acc_range", unit, why)) {
      ++st.failed;
      return false;
    }
    return true;
  }

  std::unique_ptr<qavat::Session> session_;
};

class SweepCold : public SweepBase {
 public:
  void setup(const RunContext& ctx) override {
    qavat::clear_experiment_caches(true);
    new_session(*ctx.tracer);
  }

  void cycle(const RunContext& ctx, index_t c, LoopStats& st,
             Activity& act) override {
    Tracer& tr = *ctx.tracer;
    const qavat::SweepManifest m = sweep_manifest(ctx.seed, c);
    index_t expected = 0;
    {
      Span s(tr, "Session::claim_units", "eval/runner");
      expected = expected_training_runs(*session_, m.specs);
    }
    const index_t runs0 = qavat::training_runs();
    const qavat::SessionCounters before = session_->counters();
    std::vector<ScenarioResult> results(m.specs.size());
    for (std::size_t i = 0; i < m.specs.size(); ++i) {
      run_one(ctx, m, i, c, st, act, &results[i]);
    }
    const qavat::SessionCounters after = session_->counters();
    note_counters(act, before, after);

    const std::string pass = "pass " + std::to_string(c);
    const auto n = static_cast<index_t>(m.specs.size());
    std::string why;
    ctx.checker->expect(
        check_train_runs(qavat::training_runs() - runs0, expected, &why),
        "train_runs_match_claims", pass, why);
    ctx.checker->expect(
        check_cold_counters(before, after, n, count_evals(m.specs), &why),
                        "session_counters", pass, why);

    // Reload one scenario (rotating) from disk only.
    const std::size_t idx = static_cast<std::size_t>(c) % m.specs.size();
    qavat::clear_experiment_caches(false);
    qavat::SweepManifest one;
    one.name = m.name;
    one.specs = {m.specs[idx]};
    ScenarioResult warm;
    try {
      warm = session_->run_manifest(one).at(0);
      ctx.checker->expect(check_warm_reload(results[idx], warm, &why),
                          "warm_reload_identical", unit_name("scenario", c, idx),
                          why);
    } catch (const std::exception& e) {
      ctx.checker->expect(false, "warm_reload_identical",
                          unit_name("scenario", c, idx), e.what());
    }
    qavat::clear_experiment_caches(false);
  }
};

class SweepWarm : public SweepBase {
 public:
  const char* request_unit() const override { return "manifest replay"; }

  void setup(const RunContext& ctx) override {
    Tracer& tr = *ctx.tracer;
    qavat::clear_experiment_caches(true);
    new_session(tr);
    const qavat::SweepManifest m = sweep_manifest(ctx.seed, 0);
    path_ = ctx.work_dir + "/warm_manifest.json";
    std::string err;
    {
      Span s(tr, "SweepManifest::save", "eval/manifest");
      if (!m.save(path_, &err)) throw std::runtime_error("manifest save: " + err);
    }
    Span s(tr, "Session::run_manifest", "eval/runner");
    cold_ = session_->run_manifest(m);
  }

  void cycle(const RunContext& ctx, index_t c, LoopStats& st,
             Activity& act) override {
    Tracer& tr = *ctx.tracer;
    qavat::clear_experiment_caches(false);
    const std::string pass = "pass " + std::to_string(c);
    qavat::SweepManifest m;
    std::string err;
    const Stopwatch sw;
    bool loaded = false;
    {
      Span s(tr, "SweepManifest::load", "eval/manifest");
      loaded = qavat::SweepManifest::load(path_, &m, &err);
    }
    const double load_s = sw.wall_s();
    const double load_cpu_s = sw.cpu_s();
    if (!ctx.checker->expect(loaded && m.specs.size() == cold_.size(),
                             "warm_reload_identical", pass,
                             "manifest did not reload: " + err)) {
      ++st.attempted;
      ++st.failed;
      return;
    }
    // The request is the whole replay: manifest load plus every scenario
    // (scenarios alone take well under a millisecond, too little to time
    // one by one on a shared host); the work units are the scenarios.
    const index_t runs0 = qavat::training_runs();
    const qavat::SessionCounters before = session_->counters();
    LoopStats scen;
    for (std::size_t i = 0; i < m.specs.size(); ++i) {
      ScenarioResult r;
      if (!run_one(ctx, m, i, c, scen, act, &r)) continue;
      std::string why;
      if (!ctx.checker->expect(check_warm_reload(cold_[i], r, &why),
                               "warm_reload_identical",
                               unit_name("scenario", c, i), why)) {
        ++scen.failed;
      }
    }
    st.attempted += scen.attempted;
    st.failed += scen.failed;
    st.add(0, load_s + scen.busy_s, load_cpu_s + scen.cpu_s, scen.work);
    const qavat::SessionCounters after = session_->counters();
    note_counters(act, before, after);
    const auto n = static_cast<index_t>(m.specs.size());
    std::string why;
    ctx.checker->expect(
        check_train_runs(qavat::training_runs() - runs0,
                         expected_training_runs(*session_, m.specs), &why),
        "train_runs_match_claims", pass, why);
    ctx.checker->expect(
        check_warm_counters(before, after, n, count_evals(m.specs), &why),
                        "session_counters", pass, why);
  }

 private:
  std::string path_;
  std::vector<ScenarioResult> cold_;
};

// ----------------------------------------------------------- MC eval

class McEval : public Workload {
 public:
  explicit McEval(qavat::EvalBackend b) : backend_(b) {}
  const char* work_unit() const override { return "chip"; }
  const char* request_unit() const override { return "eval call"; }

  void setup(const RunContext& ctx) override {
    Tracer& tr = *ctx.tracer;
    models_.clear();
    const std::vector<ScenarioSpec> specs = mc_specs(ctx.seed, 0, backend_);
    for (ModelKind kind : mc_kinds(backend_)) {
      const ScenarioSpec& spec = spec_of(specs, kind);
      Trained t;
      {
        Span s(tr, "make_synth", "data");
        t.data = mc_dataset(kind, ctx.seed);
      }
      {
        Span s(tr, "make_model", "core/models");
        t.model = qavat::make_model(kind, spec.model_cfg);
      }
      Span s(tr, "train", "core/train");
      qavat::train(*t.model, t.data.train, qavat::TrainAlgo::kQAVAT, spec.train);
      models_.emplace(kind, std::move(t));
    }
  }

  void cycle(const RunContext& ctx, index_t c, LoopStats& st,
             Activity& act) override {
    const std::vector<ScenarioSpec> specs = mc_specs(ctx.seed, c, backend_);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const ScenarioSpec& spec = specs[i];
      const std::string unit = unit_name("eval call", c, i);
      Trained& t = models_.at(spec.model);
      ++st.attempted;
      qavat::EvalStats stats;
      const Stopwatch sw;
      try {
        Span s(*ctx.tracer, "evaluate_under_variability", "eval/evaluator");
        stats = evaluate(t, spec, spec.eval);
      } catch (const std::exception& e) {
        ++st.failed;
        ctx.checker->expect(false, "request_completes", unit, e.what());
        continue;
      }
      const double wall = sw.wall_s();
      st.add(i, wall, sw.cpu_s(), static_cast<double>(spec.eval.n_chips));
      note_eval(act, spec, wall);
      std::string why;
      if (!ctx.checker->expect(check_eval_stats(stats, spec.eval.n_chips, &why),
                               "acc_range", unit, why)) {
        ++st.failed;
      }
    }
  }

  void final_checks(const RunContext& ctx) override {
    // A few chips of each kind's self-tuned request: the default chip
    // batch against sequential single-chip evaluation.
    for (const ScenarioSpec& spec : mc_specs(ctx.seed, 0, backend_)) {
      if (!spec.selftune_active()) continue;
      Trained& t = models_.at(spec.model);
      qavat::EvalConfig batched = spec.eval;
      batched.n_chips = 4;
      batched.chip_batch = 0;
      qavat::EvalConfig sequential = batched;
      sequential.chip_batch = 1;
      std::string why;
      ctx.checker->expect(
          check_identical(evaluate(t, spec, batched).per_chip_acc,
                          evaluate(t, spec, sequential).per_chip_acc, &why),
          "chip_batch_identity", kind_name(spec.model) + " model", why);
    }
  }

 private:
  struct Trained {
    qavat::SplitDataset data;
    std::unique_ptr<qavat::Module> model;
  };

  static const ScenarioSpec& spec_of(const std::vector<ScenarioSpec>& specs,
                                     ModelKind kind) {
    for (const ScenarioSpec& s : specs) {
      if (s.model == kind) return s;
    }
    throw std::logic_error("no MC spec for a model kind");
  }

  static qavat::EvalStats evaluate(Trained& t, const ScenarioSpec& spec,
                                   const qavat::EvalConfig& ecfg) {
    return qavat::evaluate_under_variability(
        *t.model, t.data.test, spec.deploy, ecfg,
        spec.selftune_active() ? &spec.selftune : nullptr);
  }

  qavat::EvalBackend backend_;
  std::map<ModelKind, Trained> models_;
};

// ------------------------------------------------------------- fleet

class FleetLifetime : public Workload {
 public:
  const char* work_unit() const override { return "chip-step"; }
  const char* request_unit() const override { return "study"; }

  void setup(const RunContext& ctx) override {
    Tracer& tr = *ctx.tracer;
    qavat::clear_experiment_caches(true);
    session_ = std::make_unique<qavat::Session>();
    const qavat::FleetStudySpec study = fleet_study(ctx.seed, 0);
    {
      Span s(tr, "Session::dataset", "data");
      session_->dataset(study.scenario.model);
    }
    Span s(tr, "Session::train_model", "eval/runner");
    session_->train_model(study.scenario);
  }

  void cycle(const RunContext& ctx, index_t c, LoopStats& st,
             Activity& act) override {
    const qavat::FleetStudySpec spec = fleet_study(ctx.seed, c);
    const std::string unit = "study of cycle " + std::to_string(c);
    const qavat::SessionCounters before = session_->counters();
    ++st.attempted;
    qavat::FleetRunResult r;
    const Stopwatch sw;
    try {
      Span s(*ctx.tracer, "FleetEvaluator::run", "eval/fleet");
      qavat::FleetEvaluator fe(*session_);
      r = fe.run(spec);
    } catch (const std::exception& e) {
      ++st.failed;
      ctx.checker->expect(false, "request_completes", unit, e.what());
      return;
    }
    const double wall = sw.wall_s();
    st.add(0, wall, sw.cpu_s(),
           static_cast<double>(spec.lifetime.n_chips * spec.lifetime.n_steps));
    act["fleet.run_s"] += wall;
    act["fleet.snapshots_published"] += static_cast<double>(r.snapshots_published);
    note_counters(act, before, session_->counters());

    const index_t windows = spec.lifetime.n_steps / spec.lifetime.checkpoint_every;
    std::string why;
    bool ok = ctx.checker->expect(check_fleet_rows(r.trajectory, windows, &why),
                                  "fleet_rows", unit, why);
    ok &= ctx.checker->expect(check_fleet_cold(r, windows, &why),
                              "fleet_cold_study", unit, why);
    if (!ok) ++st.failed;
  }

  void final_checks(const RunContext& ctx) override {
    expect_store_clean(ctx);

    // Fleet chip batch 1 against the default, store off so both compute.
    qavat::FleetStudySpec small = fleet_study(ctx.seed, 0);
    small.lifetime.n_chips = 6;
    small.lifetime.n_steps = 8;
    small.lifetime.checkpoint_every = 4;
    setenv("QAVAT_STORE", "0", 1);
    setenv("QAVAT_FLEET_CHIP_BATCH", "1", 1);
    qavat::FleetEvaluator fe(*session_);
    const qavat::FleetTrajectory seq = fe.run(small).trajectory;
    unsetenv("QAVAT_FLEET_CHIP_BATCH");
    const qavat::FleetTrajectory batched = fe.run(small).trajectory;
    unsetenv("QAVAT_STORE");
    std::string why;
    ctx.checker->expect(check_identical(flatten(seq), flatten(batched), &why),
                        "chip_batch_identity", "6-chip fleet study", why);
  }

 private:
  static std::vector<double> flatten(const qavat::FleetTrajectory& t) {
    std::vector<double> v;
    for (const qavat::FleetCheckpoint& c : t.checkpoints) {
      v.insert(v.end(), {static_cast<double>(c.step), c.mean, c.min, c.max, c.p5,
                         c.p50, c.p95, static_cast<double>(c.retunes), c.stale});
    }
    return v;
  }

  std::unique_ptr<qavat::Session> session_;
};

}  // namespace

std::vector<std::string> workload_names() {
  return {"sweep_cold", "sweep_warm", "mc_weight_domain", "mc_int8",
          "mc_circuit", "fleet_lifetime"};
}

std::unique_ptr<Workload> make_workload(const std::string& name) {
  if (name == "sweep_cold") return std::make_unique<SweepCold>();
  if (name == "sweep_warm") return std::make_unique<SweepWarm>();
  if (name == "mc_weight_domain") {
    return std::make_unique<McEval>(qavat::EvalBackend::kWeightDomain);
  }
  if (name == "mc_int8") return std::make_unique<McEval>(qavat::EvalBackend::kInt8);
  if (name == "mc_circuit") {
    return std::make_unique<McEval>(qavat::EvalBackend::kCircuit);
  }
  if (name == "fleet_lifetime") return std::make_unique<FleetLifetime>();
  return nullptr;
}

}  // namespace perfbench
