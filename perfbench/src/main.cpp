// qbench: the repository's end-to-end benchmark.
//
//   qbench --workload NAME --seed N --seconds S --trace 0|1 --work DIR
//          [--trace-file PATH]
//   qbench selftest --work DIR
//
// A run sets the workload up repeatedly (setup_s is the median), then
// measures whole cycles of requests for at least S seconds with tracing
// off and prints the end-to-end metrics. Their times are process CPU
// seconds, which time spent waiting for a shared host's cores does not
// inflate; the run record keeps the wall-clock figures. With --trace 1 it measures a
// second loop of the same length with spans on, runs the per-layer probes
// and prints the per-layer metrics instead, and writes the spans as
// Chrome Trace Event Format JSON. The last stdout line is the result
// object; the line before it is the run record (host stamp, tail
// percentile, sample count, check tallies). Normally launched through
// run.py, which builds this binary and sets the environment.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>
#include <string>

#include "eval/experiment.h"
#include "probes.h"
#include "tensor/int_ops.h"
#include "tensor/parallel_for.h"
#include "workloads.h"

#ifndef QBENCH_BUILD_TYPE
#define QBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
int run_selftest(const std::string& work_dir);
}

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;
using Metrics = std::map<std::string, double>;

// Set-up repeats at least twice and until 3 s of wall time have passed
// (at most 50 times); setup_s is the median of their CPU times.
constexpr int kMinSetupReps = 2;
constexpr int kMaxSetupReps = 50;
constexpr double kSetupBudgetS = 3.0;
constexpr std::size_t kMinRequests = 11;  // a tail needs 10 samples beyond it
constexpr std::int64_t kSetupGroup = -1;
constexpr std::int64_t kProbeGroup = -2;

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string work_dir;
  std::string trace_file;
};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  if (n == 0) return 0.0;
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// The highest percentile with at least ten samples beyond it: the
// (N-10)-th smallest of N samples, at percentile 100 * (N - 10) / N.
struct Tail {
  double value = 0.0;
  double percentile = 0.0;
};

Tail tail_of(std::vector<double> v) {
  Tail t;
  if (v.size() < kMinRequests) return t;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  t.value = v[n - 11];
  t.percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return t;
}

double cpu_seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
}

std::string json_escape(const std::string& s) {
  std::string o;
  for (char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) o += c;
  }
  return o;
}

// N of the model.*.tN probe rows: the host's cores, at most 4.
qavat::index_t probe_threads() {
  return std::max<qavat::index_t>(1, std::min<long>(4, sysconf(_SC_NPROCESSORS_ONLN)));
}

std::string stamp_json(const Options& o) {
  char host[256] = {0};
  gethostname(host, sizeof(host) - 1);
  const char* threads = std::getenv("QAVAT_THREADS");
  std::string s;
  s += "\"workload\":\"" + json_escape(o.workload) + "\"";
  s += ",\"seed\":" + std::to_string(o.seed);
  s += ",\"seconds\":" + std::to_string(o.seconds);
  s += ",\"trace\":" + std::string(o.trace ? "1" : "0");
  s += ",\"host\":\"" + json_escape(host) + "\"";
  s += ",\"nproc\":" + std::to_string(sysconf(_SC_NPROCESSORS_ONLN));
  s += ",\"qavat_threads\":\"" + json_escape(threads ? threads : "") + "\"";
  s += ",\"pool_threads\":" + std::to_string(qavat::num_threads());
  s += ",\"probe_threads\":" + std::to_string(probe_threads());
#ifdef __clang__
  s += ",\"compiler\":\"clang " + json_escape(__VERSION__) + "\"";
#else
  s += ",\"compiler\":\"gcc " + json_escape(__VERSION__) + "\"";
#endif
  s += ",\"build_type\":\"" QBENCH_BUILD_TYPE "\"";
  s += ",\"int8_kernel\":\"" + std::string(qavat::detail::int8_kernel_name()) + "\"";
  s += ",\"fast_mode\":" + std::string(qavat::fast_mode() ? "true" : "false");
  return s;
}

// Whole cycles until at least `seconds` passed and a tail is defined
// (bounded at three times the budget if requests keep failing).
void run_loop(Workload& w, const RunContext& ctx, double seconds,
              qavat::index_t& cycle, LoopStats& st, Activity& act) {
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    ctx.tracer->set_group(cycle);
    {
      Tracer::Span s(*ctx.tracer, "cycle", "bench");
      w.cycle(ctx, cycle++, st, act);
    }
    elapsed = seconds_since(t0);
  } while (elapsed < seconds ||
           (st.request_s.size() < kMinRequests && elapsed < 3.0 * seconds));
}

std::string num(double x) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", x);
  return buf;
}

void put(std::string& out, const std::string& name, double value,
         const char* unit) {
  if (!out.empty()) out += ",";
  out += "\"" + name + "\":{\"value\":" + num(value) + ",\"unit\":\"" + unit + "\"}";
}

double ratio(double a, double b) { return b > 0.0 ? a / b : 0.0; }

// Per-layer metrics of a traced run, every name present on every workload
// (0 where the workload does not exercise the layer).
std::string per_layer_json(const Metrics& probes, const Activity& act,
                           const Tracer& tr, const LoopStats& untraced,
                           const LoopStats& traced, double data_synth_s,
                           const rusage& r0, const rusage& r1, double wall_s) {
  auto get = [&](const std::string& k) {
    auto it = act.find(k);
    return it == act.end() ? 0.0 : it->second;
  };
  std::string out;
  const char* kinds[] = {"lenet5s", "vgg11s", "resnet18s"};
  auto probe = [&](const std::string& name, const char* unit) {
    put(out, name, probes.at(name), unit);
  };
  probe("tensor.gemm_f32.gmacs", "GMAC/s");
  probe("tensor.gemm_s8.gmacs", "GMAC/s");
  probe("tensor.im2col.gbs", "GB/s");
  probe("tensor.col2im.gbs", "GB/s");
  probe("tensor.maxpool.gbs", "GB/s");
  probe("tensor.maxpool_bwd.gbs", "GB/s");
  probe("tensor.parallel_for.dispatch_us", "us");
  probe("quant.fake_quant.gbs", "GB/s");
  probe("quant.mmse_scale_ms", "ms");
  for (const char* k : kinds) {
    for (const char* dir : {"fwd_ms", "bwd_ms"}) {
      for (const char* t : {"t1", "tN"}) {
        probe(std::string("model.") + k + "." + dir + "." + t, "ms");
      }
    }
  }
  for (const char* k : kinds) {
    const std::string p = std::string("train.") + k;
    put(out, p + ".busy_s", get(p + ".busy_s"), "s");
    put(out, p + ".samples_per_s", ratio(get(p + ".samples"), get(p + ".busy_s")),
        "1/s");
  }
  put(out, "train.calls", get("train.calls"), "count");
  put(out, "data.synth_s", data_synth_s, "s");
  for (const char* b : {"weight_domain", "int8", "circuit"}) {
    const std::string p = std::string("eval.") + b;
    put(out, p + ".busy_s", get(p + ".busy_s"), "s");
    put(out, p + ".chips", get(p + ".chips"), "count");
    put(out, p + ".selftune_ratio",
        ratio(ratio(get(p + ".selftune_s"), get(p + ".selftune_chips")),
              ratio(get(p + ".plain_s"), get(p + ".plain_chips"))),
        "ratio");
  }
  for (const char* c : {"session.trained", "session.model_store_hits",
                        "session.evals_computed", "session.eval_cache_hits"}) {
    put(out, c, get(c), "count");
  }
  put(out, "session.train_s", get("session.train_s"), "s");
  put(out, "session.eval_s", get("session.eval_s"), "s");
  put(out, "session.other_s", get("session.other_s"), "s");
  put(out, "sweep.deferrals", get("sweep.deferrals"), "count");
  probe("json.spec_parse_us", "us");
  probe("json.manifest_load_ms", "ms");
  probe("store.save.mb_per_s", "MB/s");
  probe("store.load.mb_per_s", "MB/s");
  probe("store.verify_ms", "ms");
  probe("store.writes_failed", "count");
  probe("store.loads_corrupt", "count");
  probe("store.claims_reclaimed", "count");
  probe("store.retrains_after_corruption", "count");
  put(out, "fleet.run_s", get("fleet.run_s"), "s");
  put(out, "fleet.snapshots_published", get("fleet.snapshots_published"), "count");
  probe("lifetime.chip_steps_per_s", "1/s");
  put(out, "proc.user_s", cpu_seconds(r1.ru_utime) - cpu_seconds(r0.ru_utime), "s");
  put(out, "proc.sys_s", cpu_seconds(r1.ru_stime) - cpu_seconds(r0.ru_stime), "s");
  put(out, "proc.wall_s", wall_s, "s");

  // Self time per layer over the traced loop's spans (set-up and probe
  // spans carry negative groups).
  std::map<std::string, double> self = tr.self_seconds_by_layer(0);
  for (const char* layer : {"bench", "eval/runner", "eval/manifest",
                            "eval/evaluator", "eval/fleet"}) {
    std::string name = std::string("self_s.") + layer;
    std::replace(name.begin(), name.end(), '/', '.');
    put(out, name, self[layer], "s");
  }
  // Request latency of the untraced loop. Not end-to-end: across ten
  // seeds on a shared host these order statistics spread by 20-30%, more
  // than the largest bound a regression gate may use.
  const Tail tail = tail_of(untraced.request_s);
  put(out, "request.p50_s", median(untraced.request_s), "s");
  put(out, "request.tail_s", tail.value, "s");
  put(out, "request.tail_percentile", tail.percentile, "%");
  put(out, "request.count", static_cast<double>(untraced.request_s.size()), "count");
  put(out, "loop.work_per_wall_s", ratio(untraced.work, untraced.busy_s), "1/s");
  put(out, "trace.overhead.work_per_cpu_s",
      traced.median_cycle_rate() - untraced.median_cycle_rate(),
      "1/s");
  put(out, "trace.overhead.request_p50_s",
      median(traced.request_s) - median(untraced.request_s), "s");
  put(out, "trace.spans", static_cast<double>(tr.records().size()), "count");
  return out;
}

bool parse_args(int argc, char** argv, Options* o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      o->workload = v;
    } else if (k == "--seed") {
      o->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      o->seconds = std::strtod(v.c_str(), nullptr);
    } else if (k == "--trace") {
      o->trace = v == "1";
    } else if (k == "--work") {
      o->work_dir = v;
    } else if (k == "--trace-file") {
      o->trace_file = v;
    } else {
      return false;
    }
  }
  return !o->workload.empty() && o->seconds > 0.0 && !o->work_dir.empty();
}

int run(const Options& o) {
  std::unique_ptr<Workload> w = make_workload(o.workload);
  if (w == nullptr) {
    std::fprintf(stderr, "qbench: unknown workload '%s'\n", o.workload.c_str());
    return 2;
  }
  // A private store under the work directory, never artifacts/store.
  setenv("QAVAT_STORE_DIR", (o.work_dir + "/store").c_str(), 1);
  Tracer tr;
  Checker ck;
  const RunContext ctx{o.seed, o.work_dir, &tr, &ck};

  std::vector<double> setup_wall_s, setup_s;
  const auto setup_t0 = Clock::now();
  while (setup_s.size() < kMinSetupReps ||
         (setup_s.size() < kMaxSetupReps && seconds_since(setup_t0) < kSetupBudgetS)) {
    if (o.trace) tr = Tracer();  // keep only the latest set-up's spans
    tr.set_enabled(o.trace);
    tr.set_group(kSetupGroup);
    const Stopwatch sw;
    w->setup(ctx);
    setup_wall_s.push_back(sw.wall_s());
    setup_s.push_back(sw.cpu_s());
  }
  double data_synth_s = 0.0;
  for (const Tracer::Record& r : tr.records()) {
    if (std::strcmp(r.layer, "data") == 0) {
      data_synth_s += 1e-9 * static_cast<double>(r.end_ns - r.begin_ns);
    }
  }

  tr.set_enabled(false);
  qavat::index_t cycle = 0;
  LoopStats untraced, traced;
  Activity act_untraced, act_traced;
  run_loop(*w, ctx, o.seconds, cycle, untraced, act_untraced);

  rusage r0{}, r1{};
  double traced_wall = 0.0;
  if (o.trace) {
    tr.set_enabled(true);
    getrusage(RUSAGE_SELF, &r0);
    const auto t0 = Clock::now();
    run_loop(*w, ctx, o.seconds, cycle, traced, act_traced);
    traced_wall = seconds_since(t0);
    getrusage(RUSAGE_SELF, &r1);
    tr.set_enabled(false);
  }
  w->final_checks(ctx);
  Metrics probes;
  if (o.trace) {
    tr.set_enabled(true);
    tr.set_group(kProbeGroup);
    probes = run_layer_probes(ctx, probe_threads());
    tr.set_enabled(false);
  }

  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const double peak_rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const Tail tail = tail_of(untraced.request_s);
  const long long attempted = untraced.attempted + traced.attempted;
  const long long failed = untraced.failed + traced.failed;
  const bool correct = ck.failures() == 0 && failed == 0 &&
                       untraced.request_s.size() >= kMinRequests;

  std::string setup_list;
  for (double s : setup_wall_s) setup_list += (setup_list.empty() ? "" : ",") + num(s);
  std::string record = stamp_json(o);
  record += ",\"work_unit\":\"" + std::string(w->work_unit()) + "\"";
  record += ",\"request_unit\":\"" + std::string(w->request_unit()) + "\"";
  record += ",\"setup_wall_s_reps\":[" + setup_list + "]";
  record += ",\"work_per_wall_s\":" + num(ratio(untraced.work, untraced.busy_s));
  record += ",\"work_per_cpu_s_mean\":" + num(ratio(untraced.work, untraced.cpu_s));
  record += ",\"requests\":" + std::to_string(untraced.request_s.size());
  record += ",\"cycles\":" + std::to_string(cycle);
  record += ",\"tail_percentile\":" + num(tail.percentile);
  record += ",\"checks\":{" + ck.summary_json() + "}";

  std::string metrics;
  if (o.trace) {
    metrics = per_layer_json(probes, act_traced, tr, untraced, traced,
                             data_synth_s, r0, r1, traced_wall);
    const std::string path =
        o.trace_file.empty() ? o.work_dir + "/trace.json" : o.trace_file;
    if (!tr.write_chrome_trace(path, record)) {
      std::fprintf(stderr, "qbench: cannot write trace %s\n", path.c_str());
      return 1;
    }
    record += ",\"trace_file\":\"" + json_escape(path) + "\"";
  } else {
    put(metrics, "setup_s", median(setup_s), "s");
    put(metrics, "peak_rss_mb", peak_rss_mb, "MB");
    put(metrics, "work_per_cpu_s", untraced.median_cycle_rate(), "1/s");
  }
  std::printf("{\"record\":{%s}}\n", record.c_str());
  std::printf("{\"correct\":%s,\"attempted\":%lld,\"failed\":%lld,\"metrics\":{%s}}\n",
              correct ? "true" : "false", attempted, failed, metrics.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc >= 2 && std::strcmp(argv[1], "selftest") == 0) {
      Options o;
      o.workload = "selftest";
      o.seconds = 1.0;
      if (!parse_args(argc - 1, argv + 1, &o)) {
        std::fprintf(stderr, "usage: qbench selftest --work DIR\n");
        return 2;
      }
      return run_selftest(o.work_dir);
    }
    Options o;
    if (!parse_args(argc, argv, &o)) {
      std::fprintf(stderr,
                   "usage: qbench --workload NAME --seed N --seconds S "
                   "--trace 0|1 --work DIR [--trace-file PATH]\n");
      return 2;
    }
    return run(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "qbench: %s\n", e.what());
    return 1;
  }
}
