// Direct calls into single layers, timed from outside the program: the
// per-layer counterparts of the end-to-end metrics. Each call runs on one
// thread (OpenMP team of 1), so its time is the layer's own cost and not
// the team's; the OpenMP setting is restored afterwards.
#ifdef _OPENMP
#include <omp.h>
#endif

#include <stdexcept>

#include "driver.hpp"
#include "math/matrix.hpp"
#include "net/wire.hpp"
#include "nn/session.hpp"

namespace perfbench {
namespace {

/// Median microseconds per call over repeated calls: a few warm-up
/// calls, then calls for 0.1 s (at least 50). One span covers the whole
/// repetition.
template <typename F>
double time_call_us(SpanLog& spans, const char* span_name, F&& call) {
  for (int i = 0; i < 3; ++i) call();
  std::vector<double> us;
  const std::int64_t start = now_ns();
  const std::int64_t deadline = start + 100'000'000;
  while (us.size() < 50 || now_ns() < deadline) {
    const std::int64_t t0 = now_ns();
    call();
    us.push_back(static_cast<double>(now_ns() - t0) * 1e-3);
  }
  spans.add(span_name, start, now_ns());
  return median(std::move(us));
}

math::Matrix rows_of(const math::Matrix& pool,
                     const std::vector<std::size_t>& idx, std::size_t n) {
  math::Matrix m(n, pool.cols());
  for (std::size_t r = 0; r < n; ++r) m.set_row(r, pool.row(idx[r]));
  return m;
}

}  // namespace

void finish_traced_run(Environment& env, const Options& opt, Ledger& ledger,
                       SpanLog& spans) {
  // Self time covers the workload's spans only: the direct calls below
  // run for fixed budgets, so their spans would say nothing about it.
  for (const auto& [layer, s] : spans.self_seconds())
    ledger.set(layer + ".self_s", s, "s");
#ifdef _OPENMP
  const int team = omp_get_max_threads();
  omp_set_num_threads(1);
#endif
  const math::Matrix& counts = env.bundle.test.counts;
  const std::vector<std::size_t> idx =
      choose_rows(derive_seed(opt.seed, 90), counts.rows(), 64);
  const math::Matrix c1 = rows_of(counts, idx, 1);
  const math::Matrix c16 = rows_of(counts, idx, 16);
  const std::size_t cols = counts.cols();
  core::MalwareDetector& detector = env.detector();

  // net: the two request decoders on bodies shaped like the workload's,
  // and the response encoder on a 16-verdict result.
  const std::string json1 = encode_json_rows(c1);
  const std::string mevb16 = net::encode_binary_rows(c16);
  ledger.set("net.decode_us.json1",
             time_call_us(spans, "net.parse_json_rows", [&] {
               auto r = net::parse_json_rows(json1, cols, 1024);
               if (!r.ok) throw std::runtime_error("json decode: " + r.error);
             }),
             "us");
  ledger.set("net.decode_us.mevb16",
             time_call_us(spans, "net.parse_binary_rows", [&] {
               auto r = net::parse_binary_rows(mevb16, cols, 1024);
               if (!r.ok) throw std::runtime_error("mevb decode: " + r.error);
             }),
             "us");
  serve::ScoreResult result;
  result.model_version = 1;
  nn::InferenceSession scan_session = detector.make_session(64);
  result.verdicts = detector.scan_counts(scan_session, c16);
  std::size_t sink = 0;
  ledger.set("net.format_us.b16",
             time_call_us(spans, "net.format_verdicts_json", [&] {
               sink += net::format_verdicts_json(result).size();
             }),
             "us");

  // features: the count transform on one heavy-phase request.
  const auto& transform = detector.pipeline().transform();
  ledger.set("features.transform_us.b16",
             time_call_us(spans, "features.CountTransform.apply", [&] {
               sink += transform.apply(c16).rows();
             }),
             "us");

  // nn: InferenceSession forward at three batch sizes and one input
  // gradient, on the target network.
  const math::Matrix f64 =
      detector.features_of_counts(rows_of(counts, idx, 64));
  nn::InferenceSession session(detector.network(), 64);
  for (const std::size_t b : {1u, 16u, 64u}) {
    math::Matrix x(b, f64.cols());
    for (std::size_t r = 0; r < b; ++r) x.set_row(r, f64.row(r));
    ledger.set("nn.forward_us.b" + std::to_string(b),
               time_call_us(spans, "nn.InferenceSession.forward", [&] {
                 sink += session.forward(x).rows();
               }),
               "us");
  }
  math::Matrix x1(1, f64.cols());
  x1.set_row(0, f64.row(0));
  ledger.set("nn.input_grad_us.b1",
             time_call_us(spans, "nn.InferenceSession.input_gradient", [&] {
               sink += session.input_gradient(x1, 0).rows();
             }),
             "us");

  // math: matmul_into on the target's first-layer shape (m x in) * (in x out).
  const auto& first = detector.network().layer(0);
  const std::size_t in = first.input_dim(), out = first.output_dim();
  math::Matrix w(in, out);
  for (std::size_t i = 0; i < in; ++i)
    for (std::size_t j = 0; j < out; ++j)
      w(i, j) = static_cast<float>((i * 31 + j * 17) % 97) / 97.0f - 0.5f;
  math::Matrix c;
  for (const std::size_t m : {1u, 16u, 64u}) {
    math::Matrix a(m, in);
    for (std::size_t r = 0; r < m; ++r) a.set_row(r, f64.row(r));
    const std::string tag = ".m" + std::to_string(m);
    ledger.set("math.matmul_us" + tag,
               time_call_us(spans, "math.matmul_into", [&] {
                 math::matmul_into(a, w, c);
                 sink += c.rows();
               }),
               "us");
    ledger.set("math.matmul_flop" + tag,
               2.0 * static_cast<double>(m * in * out), "flop");
    ledger.set("math.matmul_bytes" + tag,
               4.0 * static_cast<double>(m * in + in * out + m * out), "B");
  }
  ledger.check(sink > 0, "layer calls produced output", "empty results");
#ifdef _OPENMP
  omp_set_num_threads(team);
#endif
}

}  // namespace perfbench
