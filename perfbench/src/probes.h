// Per-layer probes of the traced run: the benchmark times calls into each
// layer's public functions directly, at the shapes the models use, so
// end-to-end changes can be attributed to a layer. Every probe runs
// inside a trace span of its layer.
#pragma once

#include <map>
#include <string>

#include "workloads.h"

namespace perfbench {

/// Run every probe and return its metrics by name (units in README.md):
/// tensor.*, quant.*, model.*, json.*, store.* and lifetime.*. Kernel
/// probes run at the process's thread budget (QAVAT_THREADS); `threads`
/// is the N of the model.*.tN rows and of the parallel_for dispatch probe.
std::map<std::string, double> run_layer_probes(const RunContext& ctx,
                                               qavat::index_t threads);

}  // namespace perfbench
