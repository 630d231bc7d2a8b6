#include "gen.h"

#include <cmath>

namespace perfbench {

using qavat::index_t;
using qavat::ModelKind;
using qavat::ScenarioAlgo;
using qavat::ScenarioSpec;
using qavat::VarianceModel;

namespace {

std::uint64_t splitmix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

constexpr ModelKind kAllKinds[] = {ModelKind::kLeNet5s, ModelKind::kVGG11s,
                                   ModelKind::kResNet18s};

// Stream tags keep the derived seeds of different inputs apart.
enum Stream : std::uint64_t {
  kSweepTrain = 1, kSweepInit, kSweepEval, kMcTrain, kMcInit, kMcEval,
  kMcData, kFleetTrain, kFleetInit, kFleetLife
};

// Deterministic 31-bit value from (seed, a, b, c); kept below 2^31 so
// every derived seed round-trips through spec JSON.
std::uint64_t derive(std::uint64_t seed, std::uint64_t a, std::uint64_t b = 0,
                     std::uint64_t c = 0) {
  std::uint64_t h = splitmix(seed);
  h = splitmix(h ^ a);
  h = splitmix(h ^ b);
  h = splitmix(h ^ c);
  return h & 0x7fffffffULL;
}

// Total deployment sigma of a seed, in [0.20, 0.40] on a 0.01 grid.
double seed_sigma(std::uint64_t seed) {
  return 0.20 + 0.01 * static_cast<double>(derive(seed, 0) % 21);
}

}  // namespace

qavat::SweepManifest sweep_manifest(std::uint64_t seed, index_t pass) {
  const auto p = static_cast<std::uint64_t>(pass);
  const VarianceModel vm = VarianceModel::kLayerFixed;
  const double sigma_tot = seed_sigma(seed);
  qavat::SweepManifest m;
  m.name = "perfbench_sweep_s" + std::to_string(seed) + "_p" + std::to_string(pass);
  for (int row = 0; row < 3; ++row) {
    for (ModelKind kind : kAllKinds) {
      for (ScenarioAlgo algo :
           {ScenarioAlgo::kPTQVAT, ScenarioAlgo::kQAT, ScenarioAlgo::kQAVAT}) {
        ScenarioSpec s =
            row == 1 ? ScenarioSpec::mixed(kind, 4, 2, algo, vm, sigma_tot)
                           .with_selftune(qavat::proper_mode(vm))
                     : ScenarioSpec::within(kind, 4, 2, algo, vm,
                                            sigma_tot / std::sqrt(2.0));
        if (row == 2) s.deploy = qavat::VariabilityConfig{};  // clean only
        s.train.epochs = 1;
        s.train.seed = derive(seed, kSweepTrain, p);
        s.model_cfg.init_seed = derive(seed, kSweepInit, p);
        s.eval.n_chips = 4;
        s.eval.max_test_samples = 100;
        s.eval.seed = derive(seed, kSweepEval, p);
        s.eval.backend = qavat::EvalBackend::kWeightDomain;
        m.specs.push_back(s);
      }
    }
  }
  return m;
}

std::vector<ModelKind> mc_kinds(qavat::EvalBackend backend) {
  if (backend == qavat::EvalBackend::kCircuit) return {ModelKind::kLeNet5s};
  return {std::begin(kAllKinds), std::end(kAllKinds)};
}

std::vector<ScenarioSpec> mc_specs(std::uint64_t seed, index_t cycle,
                                   qavat::EvalBackend backend) {
  const VarianceModel vm = VarianceModel::kWeightProportional;
  const double sigma_tot = seed_sigma(seed);
  std::vector<ScenarioSpec> out;
  for (ModelKind kind : mc_kinds(backend)) {
    const auto k = static_cast<std::uint64_t>(kind);
    for (int variant = 0; variant < 3; ++variant) {
      ScenarioSpec s =
          variant == 0
              ? ScenarioSpec::within(kind, 4, 2, ScenarioAlgo::kQAVAT, vm,
                                     sigma_tot / std::sqrt(2.0))
              : ScenarioSpec::mixed(kind, 4, 2, ScenarioAlgo::kQAVAT, vm, sigma_tot);
      if (variant == 2) s.with_selftune(qavat::proper_mode(vm));
      s.train.epochs = 1;
      s.train.seed = derive(seed, kMcTrain, k);
      s.model_cfg.init_seed = derive(seed, kMcInit, k);
      s.eval.n_chips = 8;
      s.eval.max_test_samples = 128;
      s.eval.chip_batch = 0;
      s.eval.backend = backend;
      s.eval.seed = derive(seed, kMcEval, static_cast<std::uint64_t>(cycle),
                           3 * k + static_cast<std::uint64_t>(variant));
      out.push_back(s);
    }
  }
  return out;
}

qavat::SplitDataset mc_dataset(ModelKind kind, std::uint64_t seed) {
  const std::uint64_t data_seed = derive(seed, kMcData, static_cast<std::uint64_t>(kind));
  if (kind == ModelKind::kLeNet5s) {
    qavat::SynthDigitsConfig cfg;
    cfg.n_train = 512;
    cfg.n_test = 128;
    cfg.seed = data_seed;
    return qavat::make_synth_digits(cfg);
  }
  qavat::SynthImagesConfig cfg;
  cfg.n_train = 512;
  cfg.n_test = 128;
  cfg.seed = data_seed;
  return qavat::make_synth_images(cfg);
}

qavat::FleetStudySpec fleet_study(std::uint64_t seed, index_t pass) {
  qavat::FleetStudySpec s;
  qavat::builtin_fleet_study("fleet_mixed", &s);
  s.scenario.train.seed = derive(seed, kFleetTrain);
  s.scenario.model_cfg.init_seed = derive(seed, kFleetInit);
  s.lifetime.n_chips = 16;
  s.lifetime.n_steps = 16;
  s.lifetime.checkpoint_every = 4;
  s.lifetime.seed = derive(seed, kFleetLife, static_cast<std::uint64_t>(pass));
  return s;
}

}  // namespace perfbench
