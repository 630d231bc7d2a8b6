// Seeded input generators. Everything a workload feeds the program is
// built here from (--seed, pass): the same seed gives byte-identical
// manifests, specs and datasets, and a different seed gives disjoint
// store keys (every training and eval seed is derived from the seed).
#pragma once

#include <cstdint>
#include <vector>

#include "eval/fleet.h"
#include "eval/manifest.h"

namespace perfbench {

/// Sweep manifest of pass `pass`: 3 model kinds x {PTQ-VAT, QAT, QAVAT}
/// at A4W2 in three rows: within-chip deployment (layer-fixed, sigma_tot /
/// sqrt(2)), mixed deployment (sigma_tot, proper self-tuning) and the
/// clean accuracy. All rows train at the same within-chip sigma, so the
/// mixed and clean rows reuse the within row's models, as the paper's
/// recipe shares training; 27 scenarios, 12 training phases. Fast-mode
/// data with 1 epoch and a 4-chip x 100-image MC eval, so a pass fits in
/// a run at one thread; training, init and eval seeds derive from
/// (seed, pass).
qavat::SweepManifest sweep_manifest(std::uint64_t seed, qavat::index_t pass);

/// Model kinds an MC workload evaluates: all three, or LeNet-5s only for
/// the circuit backend (sequential, meant for small models).
std::vector<qavat::ModelKind> mc_kinds(qavat::EvalBackend backend);

/// Monte-Carlo requests of cycle `cycle`, as plain ScenarioSpecs (model,
/// deploy, self-tune and eval fields are used): per kind a within-only
/// request, a mixed request without self-tuning and a mixed request with
/// proper-mode self-tuning (weight-proportional, 8 chips x 128 images),
/// each with a fresh eval seed. The training fields define the model the
/// set-up trains per kind.
std::vector<qavat::ScenarioSpec> mc_specs(std::uint64_t seed,
                                          qavat::index_t cycle,
                                          qavat::EvalBackend backend);

/// Small synthetic dataset the MC set-up trains and evaluates on.
qavat::SplitDataset mc_dataset(qavat::ModelKind kind, std::uint64_t seed);

/// The fleet_mixed study shape (drift events + threshold re-tuning) on a
/// smaller population and horizon, with the model seeds derived from
/// `seed` and the lifetime seed from (seed, pass).
qavat::FleetStudySpec fleet_study(std::uint64_t seed, qavat::index_t pass);

}  // namespace perfbench
