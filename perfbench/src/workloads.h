// The benchmark's closed-loop workloads. Each runs whole cycles of
// requests from one thread, one request at a time:
//
//   sweep_cold        a request is one scenario of a seeded sweep manifest
//                     run through Session::run_manifest on a store that
//                     has never seen the pass's seeds (train + MC eval)
//   sweep_warm        a request is one replay of a manifest produced cold
//                     during set-up: load it and serve every scenario from
//                     the store after the in-process caches are dropped
//   mc_weight_domain  a request is one evaluate_under_variability call
//   mc_int8           (8 chips) on a model trained in set-up, cycling
//   mc_circuit        kinds and within-only / mixed / mixed + self-tuning
//   fleet_lifetime    a request is one cold FleetEvaluator::run study
//
// A Workload separates set-up (timed on its own, repeatable) from cycles
// (timed per request); the loop in main.cpp owns the clock and the
// loop, and the correctness checks run inside the cycles and in
// final_checks().
#pragma once

#include <time.h>

#include <chrono>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "checks.h"
#include "trace.h"

namespace perfbench {

/// CPU seconds (user + system) used so far by every thread of the process.
inline double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Wall and process CPU time since construction.
class Stopwatch {
 public:
  double wall_s() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - wall0_)
        .count();
  }
  double cpu_s() const { return process_cpu_seconds() - cpu0_; }

 private:
  std::chrono::steady_clock::time_point wall0_ = std::chrono::steady_clock::now();
  double cpu0_ = process_cpu_seconds();
};

/// What one measured loop produced.
struct LoopStats {
  std::vector<double> request_s;  ///< wall time of each request
  double busy_s = 0.0;   ///< wall time of the timed work (requests plus
                         ///< per-cycle program calls such as manifest
                         ///< loads); excludes checks
  double cpu_s = 0.0;    ///< process CPU time of the same timed work
  double work = 0.0;     ///< work units done (see Workload::work_unit)
  long long attempted = 0;
  long long failed = 0;
  /// CPU time and work of each request, by its position in the cycle
  /// (every cycle issues the same sequence of request shapes).
  std::vector<std::vector<double>> slot_cpu_s;
  std::vector<double> slot_work;

  /// Records one timed request, the `slot`-th of its cycle.
  void add(std::size_t slot, double wall, double cpu, double units);
  /// Work per CPU second of a cycle in which each request takes the median
  /// CPU time of its slot; 0 before the first request.
  double median_cycle_rate() const;
};

/// Layer-activity counters accumulated by the cycles (per-layer metrics
/// of the traced run), keyed by metric name.
using Activity = std::map<std::string, double>;

struct RunContext {
  std::uint64_t seed = 0;
  std::string work_dir;  ///< private scratch directory of this run
  Tracer* tracer = nullptr;
  Checker* checker = nullptr;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One complete set-up; a later call replaces the previous state.
  virtual void setup(const RunContext& ctx) = 0;
  /// One whole cycle of requests.
  virtual void cycle(const RunContext& ctx, qavat::index_t cycle_no,
                     LoopStats& st, Activity& act) = 0;
  /// Checks that run once, after the measured loops (not timed).
  virtual void final_checks(const RunContext& ctx) = 0;
  /// Name of the work unit counted in LoopStats::work.
  virtual const char* work_unit() const = 0;
  /// Name of one request.
  virtual const char* request_unit() const = 0;
};

/// Names accepted by make_workload, in BENCHMARK.json order.
std::vector<std::string> workload_names();

/// nullptr for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name);

}  // namespace perfbench
