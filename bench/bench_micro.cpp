// Google-benchmark microbenchmarks for the library's hot paths: matmul,
// InferenceSession forward and backward, JSMA crafting throughput, feature
// transforms, PCA fitting and synthetic-corpus generation — plus the
// add-only vs unconstrained-JSMA ablation cost (DESIGN.md §5).
//
// Besides the console table, the binary writes BENCH_micro.json (ns/op per
// benchmark) to the working directory for machine consumption.
#include <benchmark/benchmark.h>

#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "attack/jsma.hpp"
#include "data/api_vocab.hpp"
#include "data/synthetic.hpp"
#include "features/transform.hpp"
#include "math/matrix.hpp"
#include "math/pca.hpp"
#include "math/rng.hpp"
#include "nn/loss.hpp"
#include "nn/network.hpp"
#include "nn/session.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/obs.hpp"
#include "obs/slo.hpp"
#include "obs/window.hpp"

#include "bench_meta.hpp"

using namespace mev;
using mev::bench::write_meta_json;

namespace {

math::Matrix random_matrix(std::size_t rows, std::size_t cols,
                           std::uint64_t seed) {
  math::Rng rng(seed);
  math::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.uniform());
  return m;
}

void BM_Matmul(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const math::Matrix a = random_matrix(n, n, 1);
  const math::Matrix b = random_matrix(n, n, 2);
  for (auto _ : state) {
    benchmark::DoNotOptimize(math::matmul(a, b));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n *
                          n * n);
}
BENCHMARK(BM_Matmul)->Arg(64)->Arg(128)->Arg(256);

void BM_SessionForward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  nn::MlpConfig cfg;
  cfg.dims = {491, 192, 240, 208, 2};
  cfg.seed = 3;
  const nn::Network net = nn::make_mlp(cfg);
  nn::InferenceSession session(net, batch);
  const math::Matrix x = random_matrix(batch, 491, 4);
  session.forward(x);  // warm-up: steady state is allocation-free
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.forward(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          batch);
}
BENCHMARK(BM_SessionForward)->Arg(1)->Arg(64)->Arg(256);

void BM_SessionBackward(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  nn::MlpConfig cfg;
  cfg.dims = {491, 192, 240, 208, 2};
  cfg.seed = 3;
  nn::Network net = nn::make_mlp(cfg);
  nn::InferenceSession session(net, batch);
  session.bind_params(net);
  const math::Matrix x = random_matrix(batch, 491, 4);
  std::vector<int> labels(batch);
  for (std::size_t i = 0; i < batch; ++i) labels[i] = i % 2;
  for (auto _ : state) {
    session.zero_param_grads();
    const math::Matrix& logits = session.forward(x, true);
    const auto loss = nn::softmax_cross_entropy(logits, labels);
    benchmark::DoNotOptimize(session.backward(loss.grad_logits));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          batch);
}
BENCHMARK(BM_SessionBackward)->Arg(64)->Arg(256);

void BM_SessionInputGradient(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  nn::MlpConfig cfg;
  cfg.dims = {491, 64, 32, 2};
  cfg.seed = 5;
  const nn::Network net = nn::make_mlp(cfg);
  nn::InferenceSession session(net, batch);
  const math::Matrix x = random_matrix(batch, 491, 6);
  session.input_gradient(x, 0);  // warm-up
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.input_gradient(x, 0));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          batch);
}
BENCHMARK(BM_SessionInputGradient)->Arg(1)->Arg(32);

void BM_SessionInputGradientsAll(benchmark::State& state) {
  const auto batch = static_cast<std::size_t>(state.range(0));
  nn::MlpConfig cfg;
  cfg.dims = {491, 64, 32, 2};
  cfg.seed = 5;
  const nn::Network net = nn::make_mlp(cfg);
  nn::InferenceSession session(net, batch);
  const math::Matrix x = random_matrix(batch, 491, 6);
  session.input_gradients_all(x);  // warm-up
  for (auto _ : state) {
    benchmark::DoNotOptimize(session.input_gradients_all(x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          batch);
}
BENCHMARK(BM_SessionInputGradientsAll)->Arg(32);

void BM_JsmaCraft(benchmark::State& state) {
  const bool allow_repeat = state.range(0) != 0;
  nn::MlpConfig cfg;
  cfg.dims = {491, 64, 32, 2};
  cfg.seed = 5;
  nn::Network net = nn::make_mlp(cfg);
  const math::Matrix x = random_matrix(32, 491, 6);
  attack::JsmaConfig jcfg;
  jcfg.theta = 0.1f;
  jcfg.gamma = 0.025f;
  jcfg.allow_repeat = allow_repeat;  // ablation: repeat-allowed JSMA
  const attack::Jsma jsma(jcfg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(jsma.craft(net, x));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_JsmaCraft)->Arg(0)->Arg(1);

/// JSMA with the obs/ layer live (enabled tracer + registry in scope):
/// compare against BM_JsmaCraft/0 to quantify instrumentation overhead
/// (DESIGN.md §9 requires < 2%).
void BM_JsmaCraftTraced(benchmark::State& state) {
  nn::MlpConfig cfg;
  cfg.dims = {491, 64, 32, 2};
  cfg.seed = 5;
  nn::Network net = nn::make_mlp(cfg);
  const math::Matrix x = random_matrix(32, 491, 6);
  attack::JsmaConfig jcfg;
  jcfg.theta = 0.1f;
  jcfg.gamma = 0.025f;
  const attack::Jsma jsma(jcfg);
  obs::Tracer tracer(obs::TracerConfig{.ring_capacity = 1 << 16});
  obs::MetricsRegistry registry;
  obs::Scope scope(&tracer, &registry);
  for (auto _ : state) {
    benchmark::DoNotOptimize(jsma.craft(net, x));
    tracer.clear();  // keep the ring from saturating mid-run
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * 32);
}
BENCHMARK(BM_JsmaCraftTraced);

void BM_ObsSpanEnabled(benchmark::State& state) {
  obs::Tracer tracer(obs::TracerConfig{.ring_capacity = 1 << 16});
  for (auto _ : state) {
    obs::Span s = tracer.span("mev.bench.op");
    s.arg("x", 1.0);
    benchmark::DoNotOptimize(&s);
    if (tracer.event_count() >= (1u << 15)) tracer.clear();
  }
}
BENCHMARK(BM_ObsSpanEnabled);

void BM_ObsSpanDisabled(benchmark::State& state) {
  obs::Tracer tracer(
      obs::TracerConfig{.ring_capacity = 1 << 16, .clock = nullptr,
                        .enabled = false});
  for (auto _ : state) {
    obs::Span s = tracer.span("mev.bench.op");
    s.arg("x", 1.0);
    benchmark::DoNotOptimize(&s);
  }
}
BENCHMARK(BM_ObsSpanDisabled);

// Correlated-span cost on top of BM_ObsSpanEnabled: id allocation + the
// extra TraceEvent fields. Informational (not pinned by check_regression).
void BM_ObsSpanWithContext(benchmark::State& state) {
  obs::Tracer tracer(obs::TracerConfig{.ring_capacity = 1 << 16});
  const obs::TraceContext root = tracer.make_context();
  for (auto _ : state) {
    obs::Span s = tracer.span("mev.bench.op", root);
    benchmark::DoNotOptimize(&s);
    if (tracer.event_count() >= (1u << 15)) tracer.clear();
  }
}
BENCHMARK(BM_ObsSpanWithContext);

// One completed request offered to the flight recorder (the per-response
// cost the HTTP frontend pays, slow-bank min-scan included).
void BM_FlightRecorderRecord(benchmark::State& state) {
  obs::FlightRecorder recorder(
      obs::FlightRecorderConfig{.slow_slots = 16, .error_slots = 32});
  obs::FlightRecord record;
  record.trace_id = 1;
  record.root_span_id = 2;
  record.num_spans = 7;
  std::uint64_t n = 0;
  for (auto _ : state) {
    record.start_us = n;
    record.duration_us = 1 + (n & 0x3ff);
    ++n;
    recorder.record(record);
    benchmark::DoNotOptimize(&recorder);
  }
}
BENCHMARK(BM_FlightRecorderRecord);

void BM_ObsCounterInc(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Counter counter = registry.counter("mev.bench.counter");
  for (auto _ : state) {
    counter.inc();
    benchmark::DoNotOptimize(counter);
  }
}
BENCHMARK(BM_ObsCounterInc);

void BM_ObsHistogramRecord(benchmark::State& state) {
  obs::MetricsRegistry registry;
  obs::Histogram histogram = registry.histogram("mev.bench.hist");
  std::uint64_t v = 0;
  for (auto _ : state) {
    histogram.record(v++ & 0xffff);
    benchmark::DoNotOptimize(histogram);
  }
}
BENCHMARK(BM_ObsHistogramRecord);

// One add into the sliding-window counter with an advancing timestamp —
// the per-event cost of every windowed rate on /metrics and /sloz. The
// advancing clock exercises the occasional bucket rotation, not just the
// fast already-claimed path.
void BM_WindowRecord(benchmark::State& state) {
  obs::SlidingCounter counter(obs::WindowConfig{5'000'000, 60});
  std::uint64_t now_us = 0;
  for (auto _ : state) {
    counter.add(now_us);
    now_us += 100;  // 10 kHz event rate: a rotation every 50k adds
    benchmark::DoNotOptimize(&counter);
  }
}
BENCHMARK(BM_WindowRecord);

// One resolved request recorded against both SLO objectives (two sliding
// counters each for availability and latency) — the per-request cost the
// scoring service pays on the resolve path.
void BM_SloUpdate(benchmark::State& state) {
  obs::SloTracker tracker;
  std::uint64_t now_us = 0;
  for (auto _ : state) {
    tracker.record(now_us, true, 1'000 + (now_us & 0x3ff));
    now_us += 100;
    benchmark::DoNotOptimize(&tracker);
  }
}
BENCHMARK(BM_SloUpdate);

void BM_CountTransform(benchmark::State& state) {
  const auto rows = static_cast<std::size_t>(state.range(0));
  math::Rng rng(7);
  math::Matrix counts(rows, 491);
  for (std::size_t i = 0; i < counts.size(); ++i)
    counts.data()[i] = static_cast<float>(rng.poisson(2.0));
  features::CountTransform t;
  t.fit(counts);
  for (auto _ : state) {
    benchmark::DoNotOptimize(t.apply(counts));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          rows);
}
BENCHMARK(BM_CountTransform)->Arg(256)->Arg(1024);

void BM_PcaFit(benchmark::State& state) {
  const auto k = static_cast<std::size_t>(state.range(0));
  const math::Matrix x = random_matrix(512, 491, 8);
  for (auto _ : state) {
    math::Pca pca;
    pca.fit(x, k);
    benchmark::DoNotOptimize(pca.components());
  }
}
BENCHMARK(BM_PcaFit)->Arg(8)->Arg(19);

void BM_SyntheticGeneration(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const data::GenerativeModel gen(data::ApiVocab::instance(),
                                  data::GenerativeConfig{});
  math::Rng rng(9);
  for (auto _ : state) {
    benchmark::DoNotOptimize(gen.generate_dataset(n / 2, n / 2, rng));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) * n);
}
BENCHMARK(BM_SyntheticGeneration)->Arg(128)->Arg(512);

void BM_LogRoundTrip(benchmark::State& state) {
  const data::GenerativeModel gen(data::ApiVocab::instance(),
                                  data::GenerativeConfig{});
  math::Rng rng(10);
  const data::ApiLog log = gen.generate_log(1, "bench.exe", rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(data::log_from_string(data::log_to_string(log)));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(log.calls.size()));
}
BENCHMARK(BM_LogRoundTrip);

/// Console reporter that additionally records real ns/op per benchmark and
/// dumps them as BENCH_micro.json for scripted consumption.
class JsonDumpReporter : public benchmark::ConsoleReporter {
 public:
  void ReportRuns(const std::vector<Run>& runs) override {
    for (const Run& run : runs) {
      if (run.error_occurred || run.run_type != Run::RT_Iteration) continue;
      const double ns_per_op =
          run.iterations > 0
              ? run.real_accumulated_time /
                    static_cast<double>(run.iterations) * 1e9
              : 0.0;
      results_.emplace_back(run.benchmark_name(), ns_per_op);
    }
    ConsoleReporter::ReportRuns(runs);
  }

  void write_json(const std::string& path) const {
    std::ofstream out(path);
    out << "{\n";
    for (const auto& [name, ns_per_op] : results_)
      out << "  \"" << name << "\": " << ns_per_op << ",\n";
    write_meta_json(out);  // last entry: every result line ends with ','
    out << "\n}\n";
  }

 private:
  std::vector<std::pair<std::string, double>> results_;  // name -> ns/op
};

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  JsonDumpReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  reporter.write_json("BENCH_micro.json");
  return 0;
}
