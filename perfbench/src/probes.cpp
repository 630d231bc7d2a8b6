#include "probes.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <sstream>

#include "core/quant/quantizer.h"
#include "core/variability/lifetime.h"
#include "eval/experiment.h"
#include "eval/manifest.h"
#include "eval/store.h"
#include "gen.h"
#include "tensor/conv_ops.h"
#include "tensor/int_ops.h"
#include "tensor/ops.h"
#include "tensor/parallel_for.h"

namespace perfbench {

using qavat::index_t;
using qavat::ModelKind;
using qavat::Tensor;
using Metrics = std::map<std::string, double>;
using Span = Tracer::Span;

namespace {

using Clock = std::chrono::steady_clock;
constexpr index_t kBatch = 32;  // the training batch size of every kind
constexpr ModelKind kKinds[] = {ModelKind::kLeNet5s, ModelKind::kVGG11s,
                                ModelKind::kResNet18s};

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// Mean seconds per call of f after one warm-up call, repeating until at
// least `min_s` has elapsed and `min_reps` calls ran.
template <typename F>
double per_call(F&& f, double min_s = 0.02, int min_reps = 3) {
  f();
  int reps = 0;
  const auto t0 = Clock::now();
  double elapsed = 0.0;
  do {
    f();
    ++reps;
    elapsed = seconds_since(t0);
  } while (elapsed < min_s || reps < min_reps);
  return elapsed / reps;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tensor random_tensor(std::vector<index_t> shape, qavat::Rng& rng) {
  Tensor t(std::move(shape));
  qavat::fill_uniform(t, rng, 0.0, 1.0);
  return t;
}

std::unique_ptr<qavat::Module> fresh_model(ModelKind kind) {
  auto model = qavat::make_model(kind, qavat::default_model_config(kind, 4, 2));
  for (qavat::QuantLayerBase* q : model->quant_layers()) q->refresh_weight_scale();
  return model;
}

Tensor model_input(const qavat::Module& model, qavat::Rng& rng) {
  const qavat::ModelConfig& cfg = model.config();
  return random_tensor({kBatch, cfg.in_channels, cfg.image_size, cfg.image_size},
                       rng);
}

// One quant layer as it runs at batch kBatch: GEMM rows M = batch *
// output positions, contraction K = fan_in, columns N = fan_out. A 3x3
// conv (fan_in divisible by 9, more than one output position; stride 1,
// pad 1) also gives the im2col, pooling and fake-quant geometry; 1x1
// projections and linear layers only take part in the GEMM probes.
struct LayerShape {
  index_t m, k, n;
  bool conv3;
  index_t c, side;
};

std::vector<LayerShape> model_shapes(qavat::Module& model, qavat::Rng& rng) {
  model.set_training(false);
  model.forward(model_input(model, rng));
  std::vector<LayerShape> out;
  for (qavat::QuantLayerBase* q : model.quant_layers()) {
    const auto pos = static_cast<index_t>(std::llround(q->last_positions()));
    const auto side = static_cast<index_t>(std::llround(std::sqrt(pos)));
    out.push_back({kBatch * pos, q->fan_in(), q->fan_out(),
                   pos > 1 && q->fan_in() % 9 == 0, q->fan_in() / 9, side});
  }
  return out;
}

// Throughput accumulator: amount / seconds over every shape.
struct Rate {
  double amount = 0.0;
  double seconds = 0.0;
  void add(double a, double s) {
    amount += a;
    seconds += s;
  }
  double per_s() const { return seconds > 0.0 ? amount / seconds : 0.0; }
};

void probe_tensor(Tracer& tr, const std::vector<LayerShape>& shapes,
                  qavat::Rng& rng, Metrics& out) {
  Rate f32, s8, i2c, c2i, pool, poolb, fq;
  const double idx = static_cast<double>(sizeof(index_t));
  for (const LayerShape& s : shapes) {
    const double macs = static_cast<double>(s.m) * static_cast<double>(s.k) *
                        static_cast<double>(s.n);
    {
      Tensor a = random_tensor({s.m, s.k}, rng);
      Tensor b = random_tensor({s.n, s.k}, rng);
      Tensor c;
      Span sp(tr, "matmul_nt_into", "tensor");
      f32.add(macs, per_call([&] { qavat::matmul_nt_into(a, b, c); }));
    }
    {
      std::vector<std::int8_t> a8(static_cast<std::size_t>(s.m * s.k));
      std::vector<std::int8_t> b8(static_cast<std::size_t>(s.n * s.k));
      for (auto& v : a8) v = static_cast<std::int8_t>(rng.below(15) - 7);
      for (auto& v : b8) v = static_cast<std::int8_t>(rng.below(15) - 7);
      std::vector<std::int32_t> packed(
          static_cast<std::size_t>(qavat::packed_b_s8_bytes(s.n, s.k) + 3) / 4);
      std::vector<std::int32_t> row_sums(static_cast<std::size_t>(s.n));
      std::vector<std::int32_t> c32(static_cast<std::size_t>(s.m * s.n));
      qavat::pack_b_s8(b8.data(), s.n, s.k, packed.data(), row_sums.data());
      Span sp(tr, "gemm_s8s8_s32_prepacked", "tensor");
      s8.add(macs, per_call([&] {
               qavat::gemm_s8s8_s32_prepacked(a8.data(), packed.data(),
                                              row_sums.data(), c32.data(), s.m,
                                              s.k, s.n);
             }));
    }
    if (!s.conv3) continue;
    const qavat::ConvGeom g{kBatch, s.c, s.side, s.side, 3, 1, 1, s.side, s.side};
    Tensor x = random_tensor({kBatch, s.c, s.side, s.side}, rng);
    Tensor cols, gx;
    {
      Span sp(tr, "im2col", "tensor");
      i2c.add(0, per_call([&] { qavat::im2col(x, g, cols); }));
    }
    i2c.amount += 4.0 * static_cast<double>(x.size() + cols.size());
    {
      Span sp(tr, "col2im", "tensor");
      c2i.add(0, per_call([&] { qavat::col2im(cols, g, gx); }));
    }
    c2i.amount += 4.0 * static_cast<double>(cols.size() + gx.size());
    // The conv's output: 2x2 max-pool forward and backward, and the
    // activation fake-quantizer pass over it.
    Tensor y = random_tensor({kBatch, s.n, s.side, s.side}, rng);
    Tensor py, gy, qy;
    std::vector<index_t> argmax;
    {
      Span sp(tr, "maxpool2d", "tensor");
      pool.add(0, per_call([&] { qavat::maxpool2d(y, 2, py, argmax); }));
    }
    pool.amount += 4.0 * y.size() + (4.0 + idx) * py.size();
    {
      Span sp(tr, "maxpool2d_backward", "tensor");
      poolb.add(0, per_call([&] {
                  qavat::maxpool2d_backward(py, argmax, y.shape(), gy);
                }));
    }
    poolb.amount += (4.0 + idx) * py.size() + 4.0 * gy.size();
    {
      Span sp(tr, "quantize_dequantize", "core/quant");
      fq.add(8.0 * static_cast<double>(y.size()),
             per_call([&] { qavat::quantize_dequantize(y, 0.05f, 4, qy); }));
    }
  }
  out["tensor.gemm_f32.gmacs"] = 1e-9 * f32.per_s();
  out["tensor.gemm_s8.gmacs"] = 1e-9 * s8.per_s();
  out["tensor.im2col.gbs"] = 1e-9 * i2c.per_s();
  out["tensor.col2im.gbs"] = 1e-9 * c2i.per_s();
  out["tensor.maxpool.gbs"] = 1e-9 * pool.per_s();
  out["tensor.maxpool_bwd.gbs"] = 1e-9 * poolb.per_s();
  out["quant.fake_quant.gbs"] = 1e-9 * fq.per_s();
}

void probe_dispatch(Tracer& tr, Metrics& out) {
  const index_t n = qavat::num_threads();
  Span sp(tr, "parallel_for", "tensor");
  const double s = per_call(
      [&] {
        for (int i = 0; i < 100; ++i) {
          qavat::parallel_for(0, n, 1, [](index_t, index_t) {});
        }
      },
      0.05);
  out["tensor.parallel_for.dispatch_us"] = 1e6 * s / 100.0;
}

void probe_mmse(Tracer& tr, qavat::Module& model, Rate& rate) {
  for (qavat::QuantLayerBase* q : model.quant_layers()) {
    const Tensor& w = q->weight().value;
    Span sp(tr, "mmse_scale", "core/quant");
    rate.add(1.0, per_call([&] { qavat::mmse_scale(w, q->weight_bits()); }, 0.005));
  }
}

// Module::forward / backward on one training batch: the median of five
// steps after a warm-up step, at the given thread count.
void probe_model(Tracer& tr, qavat::Module& model, qavat::Rng& rng,
                 const std::string& prefix, const char* threads, Metrics& out) {
  Tensor x = model_input(model, rng);
  std::vector<index_t> labels(static_cast<std::size_t>(kBatch));
  for (auto& l : labels) l = rng.below(model.config().num_classes);
  model.set_training(true);
  std::vector<double> fwd, bwd;
  for (int rep = 0; rep < 6; ++rep) {
    Tensor logits, grad;
    const auto t0 = Clock::now();
    {
      Span sp(tr, "Module::forward", "core/models");
      logits = model.forward(x);
    }
    const double f = seconds_since(t0);
    qavat::softmax_xent(logits, labels, &grad);
    const auto t1 = Clock::now();
    {
      Span sp(tr, "Module::backward", "core/models");
      model.backward(grad);
    }
    const double b = seconds_since(t1);
    model.zero_grad();
    if (rep == 0) continue;  // warm-up: workspace sizing, scale calibration
    fwd.push_back(f);
    bwd.push_back(b);
  }
  model.set_training(false);
  out[prefix + ".fwd_ms." + threads] = 1e3 * median(fwd);
  out[prefix + ".bwd_ms." + threads] = 1e3 * median(bwd);
}

void probe_json(const RunContext& ctx, Metrics& out) {
  Tracer& tr = *ctx.tracer;
  const qavat::SweepManifest m = sweep_manifest(ctx.seed, 0);
  std::vector<std::string> docs;
  for (const qavat::ScenarioSpec& s : m.specs) docs.push_back(s.to_json());
  double parse_s = 0.0;
  {
    Span sp(tr, "ScenarioSpec::from_json", "eval/scenario");
    parse_s = per_call([&] {
      for (const std::string& d : docs) {
        qavat::ScenarioSpec s;
        qavat::ScenarioSpec::from_json(d, &s);
      }
    });
  }
  out["json.spec_parse_us"] = 1e6 * parse_s / static_cast<double>(docs.size());
  const std::string path = ctx.work_dir + "/probe_manifest.json";
  m.save(path);
  Span sp(tr, "SweepManifest::load", "eval/manifest");
  out["json.manifest_load_ms"] = 1e3 * per_call([&] {
    qavat::SweepManifest loaded;
    qavat::SweepManifest::load(path, &loaded);
  });
}

void probe_store(Tracer& tr, const std::vector<qavat::StateDict>& dicts,
                 Metrics& out) {
  Rate save, load;
  for (std::size_t i = 0; i < dicts.size(); ++i) {
    const std::string key = "probe_state_" + std::to_string(i);
    std::ostringstream os;
    qavat::save_state_dict(os, dicts[i]);
    const double mb = 1e-6 * static_cast<double>(os.str().size());
    {
      Span sp(tr, "store_save_state", "eval/store");
      save.add(mb, per_call([&] {
                 qavat::store_save_state("perfbench_probe", key, dicts[i]);
               }));
    }
    Span sp(tr, "store_load_state", "eval/store");
    load.add(mb, per_call([&] {
               qavat::StateDict sd;
               qavat::store_load_state("perfbench_probe", key, &sd);
             }));
  }
  out["store.save.mb_per_s"] = save.per_s();
  out["store.load.mb_per_s"] = load.per_s();
  const auto t0 = Clock::now();
  {
    Span sp(tr, "store_verify_all", "eval/store");
    qavat::store_verify_all(false);
  }
  out["store.verify_ms"] = 1e3 * seconds_since(t0);
  const qavat::StoreStats st = qavat::store_stats();
  out["store.writes_failed"] = static_cast<double>(st.writes_failed);
  out["store.loads_corrupt"] = static_cast<double>(st.loads_corrupt);
  out["store.claims_reclaimed"] = static_cast<double>(st.claims_reclaimed);
  out["store.retrains_after_corruption"] =
      static_cast<double>(st.retrains_after_corruption);
}

// LifetimeModel::advance + maybe_retune alone, 64 chips x 128 steps of the
// fleet study's lifetime spec.
void probe_lifetime(const RunContext& ctx, Metrics& out) {
  const qavat::LifetimeSpec spec = fleet_study(ctx.seed, 0).lifetime;
  const qavat::LifetimeModel lm(spec);
  const index_t chips = 64, steps = 128;
  std::vector<qavat::ChipLifetimeState> st(static_cast<std::size_t>(chips));
  for (index_t c = 0; c < chips; ++c) {
    qavat::Rng rng = qavat::LifetimeModel::init_rng(spec, c);
    lm.init(&st[static_cast<std::size_t>(c)], rng);
  }
  Span sp(*ctx.tracer, "LifetimeModel::advance", "core/variability/lifetime");
  const auto t0 = Clock::now();
  for (index_t t = 1; t <= steps; ++t) {
    for (index_t c = 0; c < chips; ++c) {
      qavat::Rng rng = qavat::LifetimeModel::step_rng(spec, c, t);
      lm.advance(&st[static_cast<std::size_t>(c)], rng);
      lm.maybe_retune(&st[static_cast<std::size_t>(c)], t, rng);
    }
  }
  out["lifetime.chip_steps_per_s"] =
      static_cast<double>(chips * steps) / seconds_since(t0);
}

}  // namespace

Metrics run_layer_probes(const RunContext& ctx, index_t threads) {
  Tracer& tr = *ctx.tracer;
  Metrics out;
  qavat::Rng rng(ctx.seed, 0x9b0be);
  std::vector<LayerShape> shapes;
  std::vector<qavat::StateDict> dicts;
  Rate mmse;
  for (ModelKind kind : kKinds) {
    auto model = fresh_model(kind);
    const std::vector<LayerShape> s = model_shapes(*model, rng);
    shapes.insert(shapes.end(), s.begin(), s.end());
    probe_mmse(tr, *model, mmse);
    const std::string prefix = std::string("model.") + qavat::to_string(kind);
    qavat::set_num_threads(1);
    probe_model(tr, *model, rng, prefix, "t1", out);
    qavat::set_num_threads(threads);
    probe_model(tr, *model, rng, prefix, "tN", out);
    dicts.push_back(qavat::module_state_dict(*model));
  }
  probe_dispatch(tr, out);  // at N threads: one thread runs spans inline
  qavat::set_num_threads(0);
  probe_tensor(tr, shapes, rng, out);
  out["quant.mmse_scale_ms"] = 1e3 * mmse.seconds / mmse.amount;
  probe_json(ctx, out);
  probe_store(tr, dicts, out);
  probe_lifetime(ctx, out);
  return out;
}

}  // namespace perfbench
