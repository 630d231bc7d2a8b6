#include "eval/scenario.h"

#include <cmath>

#include "eval/experiment.h"
#include "pim/tiling.h"

namespace qavat {

const char* to_string(ScenarioAlgo a) {
  switch (a) {
    case ScenarioAlgo::kPTQVAT: return "PTQVAT";
    case ScenarioAlgo::kQAT: return "QAT";
    case ScenarioAlgo::kQAVAT: return "QAVAT";
  }
  return "?";
}

namespace {

using json::fmt_exact;
using json::fmt_g;
using json::kv;
using json::lld;

std::string noise_token(const VariabilityConfig& v) {
  if (!v.enabled()) return "off";
  return std::string(variance_token(v.model)) + "w" + fmt_g(v.sigma_w) + "b" +
         fmt_g(v.sigma_b);
}

const char* selftune_token(SelfTuneMode m) {
  switch (m) {
    case SelfTuneMode::kNone: return "none";
    case SelfTuneMode::kGtm: return "gtm";
    case SelfTuneMode::kGtmLtm: return "gtmltm";
  }
  return "?";
}

std::string noise_json(const VariabilityConfig& v) {
  std::string o = "{";
  kv(o, "model", variance_token(v.model), true);
  kv(o, "sigma_w", fmt_exact(v.sigma_w), false);
  kv(o, "sigma_b", fmt_exact(v.sigma_b), false, true);
  o += '}';
  return o;
}

bool read_noise(json::Fields f, VariabilityConfig* dst) {
  return f
      .enumeration("model", {"wp", "lf"},
                   {VarianceModel::kWeightProportional,
                    VarianceModel::kLayerFixed},
                   &dst->model)
      .num("sigma_w", &dst->sigma_w)
      .num("sigma_b", &dst->sigma_b)
      .end();
}

}  // namespace

std::string ScenarioSpec::key() const {
  std::string k = "v" + std::to_string(kScenarioSchemaVersion) + "_";
  k += to_string(model);
  k += "_A" + lld(model_cfg.a_bits) + "W" + lld(model_cfg.w_bits);
  k += "_";
  k += to_string(algo);
  k += "_m[c" + lld(model_cfg.in_channels) + "s" + lld(model_cfg.image_size) +
       "k" + lld(model_cfg.num_classes) + "i" +
       std::to_string(model_cfg.init_seed) + "]";
  k += "_tr[e" + lld(train.epochs) + "_lr" + fmt_g(train.lr) + "_bs" +
       lld(train.batch_size) + "_n" + lld(train.n_variation_samples) + "_rp" +
       (train.reparam ? "1" : "0") + "_su" +
       (train.scale_update == ScaleUpdatePolicy::kPerEpoch ? "1" : "0") +
       "_sd" + std::to_string(train.seed) + "_" + noise_token(train.train_noise) +
       "]";
  k += "_dp[" + noise_token(deploy) + "]";
  if (selftune_active()) {
    k += "_st[" + std::string(selftune_token(selftune.mode)) + "_g" +
         lld(selftune.gtm_cells) + "_l" + lld(selftune.ltm_columns) + "]";
  } else {
    k += "_st[none]";
  }
  k += "_ev[c" + lld(eval.n_chips) + "_t" + lld(eval.max_test_samples) + "_s" +
       std::to_string(eval.seed) + "_";
  if (eval.backend == EvalBackend::kCircuit) {
    // The tile grid changes which array each weight lands on and hence
    // the noise realizations: the effective tile size is part of the
    // result identity (resolved from the env default exactly like the
    // evaluator does).
    const index_t tile = eval.tile_size > 0 ? eval.tile_size
                                            : tile_size_from_env();
    k += "ckt" + lld(tile);
  } else if (eval.backend == EvalBackend::kInt8) {
    // The int8 requant grid perturbs per-chip logits relative to the
    // float weight-domain path, so its results are a distinct identity —
    // a cached weight-domain eval must never be served for an int8 run.
    k += "i8";
  } else {
    k += "wd";
  }
  k += "]";
  k += fast ? "_fast" : "_full";
  return k;
}

std::string ScenarioSpec::to_json() const {
  std::string o = "{";
  kv(o, "schema", std::to_string(kScenarioSchemaVersion), false);
  kv(o, "model", to_string(model), true);
  kv(o, "algo", to_string(algo), true);
  kv(o, "fast", fast ? "true" : "false", false);
  {
    std::string m = "{";
    kv(m, "a_bits", lld(model_cfg.a_bits), false);
    kv(m, "w_bits", lld(model_cfg.w_bits), false);
    kv(m, "in_channels", lld(model_cfg.in_channels), false);
    kv(m, "image_size", lld(model_cfg.image_size), false);
    kv(m, "num_classes", lld(model_cfg.num_classes), false);
    kv(m, "init_seed", std::to_string(model_cfg.init_seed), false, true);
    m += '}';
    kv(o, "model_cfg", m, false);
  }
  {
    std::string t = "{";
    kv(t, "epochs", lld(train.epochs), false);
    kv(t, "lr", fmt_exact(train.lr), false);
    kv(t, "batch_size", lld(train.batch_size), false);
    kv(t, "n_variation_samples", lld(train.n_variation_samples), false);
    kv(t, "reparam", train.reparam ? "true" : "false", false);
    kv(t, "scale_update",
            train.scale_update == ScaleUpdatePolicy::kPerEpoch ? "per_epoch"
                                                               : "init_only",
            true);
    kv(t, "seed", std::to_string(train.seed), false);
    kv(t, "noise", noise_json(train.train_noise), false, true);
    t += '}';
    kv(o, "train", t, false);
  }
  kv(o, "deploy", noise_json(deploy), false);
  {
    std::string s = "{";
    kv(s, "mode", selftune_token(selftune.mode), true);
    kv(s, "gtm_cells", lld(selftune.gtm_cells), false);
    kv(s, "ltm_columns", lld(selftune.ltm_columns), false, true);
    s += '}';
    kv(o, "selftune", s, false);
  }
  {
    std::string e = "{";
    kv(e, "n_chips", lld(eval.n_chips), false);
    kv(e, "max_test_samples", lld(eval.max_test_samples), false);
    kv(e, "batch_size", lld(eval.batch_size), false);
    kv(e, "seed", std::to_string(eval.seed), false);
    kv(e, "chip_batch", lld(eval.chip_batch), false);
    kv(e, "backend", to_string(eval.backend), true);
    kv(e, "tile_size", lld(eval.tile_size), false, true);
    e += '}';
    kv(o, "eval", e, false, true);
  }
  o += '}';
  return o;
}

bool ScenarioSpec::from_json(const std::string& text, ScenarioSpec* out,
                             std::string* error) {
  std::string err;
  json::Value root;
  const bool ok = json::parse(text, &root, &err) && from_json(root, out, &err);
  if (error != nullptr) *error = err;
  return ok;
}

bool ScenarioSpec::from_json(const json::Value& root, ScenarioSpec* out,
                             std::string* error) {
  std::string err;
  ScenarioSpec s;
  json::Fields f(root, &err);
  f.schema("schema", kScenarioSchemaVersion)
      .enumeration("model", {"lenet5s", "vgg11s", "resnet18s"},
                   {ModelKind::kLeNet5s, ModelKind::kVGG11s,
                    ModelKind::kResNet18s},
                   &s.model)
      .enumeration("algo", {"PTQVAT", "QAT", "QAVAT"},
                   {ScenarioAlgo::kPTQVAT, ScenarioAlgo::kQAT,
                    ScenarioAlgo::kQAVAT},
                   &s.algo)
      .boolean("fast", &s.fast);
  f.object("model_cfg")
      .index("a_bits", &s.model_cfg.a_bits)
      .index("w_bits", &s.model_cfg.w_bits)
      .index("in_channels", &s.model_cfg.in_channels)
      .index("image_size", &s.model_cfg.image_size)
      .index("num_classes", &s.model_cfg.num_classes)
      .u64("init_seed", &s.model_cfg.init_seed)
      .end();
  json::Fields t = f.object("train");
  t.index("epochs", &s.train.epochs)
      .num("lr", &s.train.lr)
      .index("batch_size", &s.train.batch_size)
      .index("n_variation_samples", &s.train.n_variation_samples)
      .boolean("reparam", &s.train.reparam)
      .u64("seed", &s.train.seed);
  read_noise(t.object("noise"), &s.train.train_noise);
  t.enumeration("scale_update", {"per_epoch", "init_only"},
                {ScaleUpdatePolicy::kPerEpoch, ScaleUpdatePolicy::kInitOnly},
                &s.train.scale_update)
      .end();
  read_noise(f.object("deploy"), &s.deploy);
  f.object("selftune")
      .enumeration("mode", {"none", "gtm", "gtmltm"},
                   {SelfTuneMode::kNone, SelfTuneMode::kGtm,
                    SelfTuneMode::kGtmLtm},
                   &s.selftune.mode)
      .index("gtm_cells", &s.selftune.gtm_cells)
      .index("ltm_columns", &s.selftune.ltm_columns)
      .end();
  f.object("eval")
      .index("n_chips", &s.eval.n_chips)
      .index("max_test_samples", &s.eval.max_test_samples)
      .index("batch_size", &s.eval.batch_size)
      .u64("seed", &s.eval.seed)
      .index("chip_batch", &s.eval.chip_batch)
      .index("tile_size", &s.eval.tile_size)
      .enumeration("backend", {"weight_domain", "circuit", "int8"},
                   {EvalBackend::kWeightDomain, EvalBackend::kCircuit,
                    EvalBackend::kInt8},
                   &s.eval.backend)
      .end();
  const bool ok = f.end();
  if (ok) *out = std::move(s);
  if (error != nullptr) *error = err;
  return ok;
}

ScenarioSpec ScenarioSpec::base(ModelKind kind, index_t a_bits, index_t w_bits,
                                ScenarioAlgo algo) {
  ScenarioSpec s;
  s.model = kind;
  s.model_cfg = default_model_config(kind, a_bits, w_bits);
  s.algo = algo;
  s.train = default_train_config(kind);
  s.eval = default_eval_config(kind);
  s.fast = fast_mode();
  return s;
}

ScenarioSpec ScenarioSpec::within(ModelKind kind, index_t a_bits,
                                  index_t w_bits, ScenarioAlgo algo,
                                  VarianceModel vm, double sigma) {
  ScenarioSpec s = base(kind, a_bits, w_bits, algo);
  s.deploy = VariabilityConfig::within_only(vm, sigma);
  s.train.train_noise = VariabilityConfig::within_only(vm, sigma);
  return s;
}

ScenarioSpec ScenarioSpec::mixed(ModelKind kind, index_t a_bits, index_t w_bits,
                                 ScenarioAlgo algo, VarianceModel vm,
                                 double sigma_tot) {
  ScenarioSpec s = base(kind, a_bits, w_bits, algo);
  s.deploy = VariabilityConfig::mixed(vm, sigma_tot);
  // §III.B deployment recipe: train with the within component only.
  s.train.train_noise =
      VariabilityConfig::within_only(vm, sigma_tot / std::sqrt(2.0));
  return s;
}

ScenarioSpec& ScenarioSpec::with_selftune(SelfTuneMode mode, index_t gtm_cells,
                                          index_t ltm_columns) {
  selftune.mode = mode;
  selftune.gtm_cells = gtm_cells;
  selftune.ltm_columns = ltm_columns;
  return *this;
}

}  // namespace qavat
