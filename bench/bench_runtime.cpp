// Microbenchmarks for the resilience layer's clean-path overhead: what the
// retry decorator costs when the oracle is healthy (the common
// case — fault handling should be pay-as-you-go) — plus the
// serving-ingress concurrency primitives (MpscQueue, EventCount) measured
// in isolation from the service.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <thread>
#include <utility>
#include <vector>

#include "math/matrix.hpp"
#include "math/rng.hpp"
#include "runtime/event_count.hpp"
#include "runtime/fault_injection.hpp"
#include "runtime/mpsc_queue.hpp"
#include "runtime/resilient_oracle.hpp"

using namespace mev;

namespace {

/// Minimal oracle: a threshold on feature 0, no model evaluation — so the
/// measurements isolate decorator overhead, not oracle cost.
class ThresholdOracle final : public runtime::CountOracle {
 public:
  std::vector<int> label_counts(const math::Matrix& counts) override {
    record_queries(counts.rows());
    std::vector<int> labels(counts.rows());
    for (std::size_t i = 0; i < counts.rows(); ++i)
      labels[i] = counts(i, 0) > 5.0f ? 1 : 0;
    return labels;
  }
};

math::Matrix random_counts(std::size_t rows, std::size_t cols,
                           std::uint64_t seed) {
  math::Rng rng(seed);
  math::Matrix m(rows, cols);
  for (std::size_t i = 0; i < m.size(); ++i)
    m.data()[i] = static_cast<float>(rng.poisson(5.0));
  return m;
}

void BM_RawOracle(benchmark::State& state) {
  ThresholdOracle oracle;
  const math::Matrix counts =
      random_counts(static_cast<std::size_t>(state.range(0)), 64, 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(oracle.label_counts(counts));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_RawOracle)->Arg(64)->Arg(512);

void BM_ResilientOracleCleanPath(benchmark::State& state) {
  ThresholdOracle inner;
  runtime::FakeClock clock;
  runtime::ResilientOracle oracle(inner, &clock);
  const math::Matrix counts =
      random_counts(static_cast<std::size_t>(state.range(0)), 64, 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(oracle.label_counts(counts));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ResilientOracleCleanPath)->Arg(64)->Arg(512);

void BM_ResilientOracleUnderFaults(benchmark::State& state) {
  ThresholdOracle inner;
  runtime::FakeClock clock;
  runtime::FaultInjectingOracle flaky(inner, runtime::FaultProfile::flaky(),
                                      &clock);
  runtime::ResilientOracle oracle(flaky, &clock);
  const math::Matrix counts =
      random_counts(static_cast<std::size_t>(state.range(0)), 64, 1);
  for (auto _ : state)
    benchmark::DoNotOptimize(oracle.label_counts(counts));
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_ResilientOracleUnderFaults)->Arg(64)->Arg(512);

// --- Serving-ingress primitives (DESIGN.md §8) -------------------------

void BM_MpscQueuePushPop(benchmark::State& state) {
  // Single-threaded round trip: the floor for one submission's queue cost
  // (two CASes + two sequence stores, no allocation).
  runtime::MpscQueue<std::uint64_t> queue(1024);
  std::uint64_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(queue.try_push(i++));
    benchmark::DoNotOptimize(queue.try_pop());
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MpscQueuePushPop);

void BM_MpscQueueContended(benchmark::State& state) {
  // N threads each doing a push + pop round trip on one shared ring: the
  // CAS contention shape of a hot shard under concurrent submitters.
  // Balanced per-thread so no thread can strand another on a full or
  // empty ring when iteration counts differ.
  static runtime::MpscQueue<std::uint64_t>* queue = nullptr;
  if (state.thread_index() == 0)
    queue = new runtime::MpscQueue<std::uint64_t>(4096);
  for (auto _ : state) {
    std::uint64_t v = 1;
    while (!queue->try_push(std::move(v))) std::this_thread::yield();
    while (!queue->try_pop().has_value()) std::this_thread::yield();
  }
  state.SetItemsProcessed(state.iterations());
  if (state.thread_index() == 0) {
    while (queue->try_pop().has_value()) {
    }
    delete queue;
    queue = nullptr;
  }
}
BENCHMARK(BM_MpscQueueContended)->Threads(2)->Threads(4)->UseRealTime();

void BM_EventCountNotifyNoWaiters(benchmark::State& state) {
  // The submit-side fast path under load: workers busy, nobody parked —
  // notify_one() must be a single atomic load, not a mutex.
  runtime::EventCount ec;
  for (auto _ : state) ec.notify_one();
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventCountNotifyNoWaiters);

void BM_EventCountPrepareCancel(benchmark::State& state) {
  // The consumer-side miss path: announce a wait, find work, abandon it.
  runtime::EventCount ec;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ec.prepare_wait());
    ec.cancel_wait();
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_EventCountPrepareCancel);

}  // namespace

BENCHMARK_MAIN();
