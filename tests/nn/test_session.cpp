// InferenceSession tests: exact parity with the pre-session implementation
// (reference values captured from the seed build, printed with %a), the
// zero-allocation steady state, and thread-safety of shared networks.
#include "nn/session.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "attack/jsma.hpp"
#include "math/rng.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "nn/trainer.hpp"

// ---------------------------------------------------------------------------
// Allocation counting hook: replaces global operator new/delete for this
// test binary so the steady-state test can assert "no heap traffic".
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::size_t> g_allocations{0};
// Allocations of exactly g_watched_size bytes (0 = watch nothing).
std::atomic<std::size_t> g_watched_size{0};
std::atomic<std::size_t> g_watched_hits{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (size != 0 && size == g_watched_size.load(std::memory_order_relaxed))
    g_watched_hits.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace mev::nn {
namespace {

math::Matrix random_input(std::size_t rows, std::size_t cols,
                          std::uint64_t seed) {
  math::Rng rng(seed);
  math::Matrix x(rows, cols);
  for (std::size_t i = 0; i < x.size(); ++i)
    x.data()[i] = static_cast<float>(rng.uniform());
  return x;
}

/// The reference network/batch the seed-build values below were captured
/// with: MLP 4-8-6-2, seed 3; input 3x4 from random_input(seed 9).
Network reference_net() {
  MlpConfig cfg;
  cfg.dims = {4, 8, 6, 2};
  cfg.seed = 3;
  return make_mlp(cfg);
}

// Values printed by the pre-refactor implementation with %a (hex floats
// are bit-exact; the refactor must reproduce them exactly, not just
// approximately).
constexpr float kRefLogits[6] = {
    0x1.a0c976p-1f, 0x1.458f6ap-1f, -0x1.32ad4p-3f,
    0x1.f8556p+0f,  0x1.973324p-1f, 0x1.4da5d4p+0f};
constexpr float kRefGrads0[12] = {
    -0x1.6ede72p-3f, 0x1.260b1p-5f,  -0x1.a4c4ecp-2f, 0x1.f7745ep-4f,
    -0x1.6317fcp-3f, -0x1.f8a30ap-6f, -0x1.d6557p-4f, 0x1.d8276ap-4f,
    -0x1.bc2464p-4f, 0x1.69e894p-6f, -0x1.fe03ecp-3f, 0x1.33c36cp-4f};
constexpr float kRefGrads1[12] = {
    0x1.6ede74p-3f, -0x1.260b1p-5f, 0x1.a4c4eep-2f,  -0x1.f77464p-4f,
    0x1.6317f8p-3f, 0x1.f8a2fep-6f, 0x1.d6556ap-4f,  -0x1.d82772p-4f,
    0x1.bc245ap-4f, -0x1.69e8acp-6f, 0x1.fe03e4p-3f, -0x1.33c378p-4f};
constexpr float kRefBackward[12] = {
    -0x1.a38b48p-4f, 0x1.c9d9aep-1f, -0x1.ee4d94p-1f, 0x1.d8c91ap+0f,
    0x1.50ea04p-2f,  0x1.756d1p-1f,  0x1.4487bap-2f,  0x1.810e1p+0f,
    0x1.c47db8p-2f,  0x1.93a9dap-1f, 0x1.1f2906p-2f,  0x1.7adb6p+0f};
constexpr float kRefWeightGrad0First6[6] = {
    0x1.841bb2p-2f, 0x1.7f5334p-5f, 0x0p+0f,
    0x1.90b2dep-1f, 0x0p+0f,        0x0p+0f};

TEST(InferenceSession, ForwardMatchesSeedBuildBitExact) {
  Network net = reference_net();
  InferenceSession session(net);
  const math::Matrix x = random_input(3, 4, 9);
  const math::Matrix& logits = session.forward(x);
  ASSERT_EQ(logits.rows(), 3u);
  ASSERT_EQ(logits.cols(), 2u);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_EQ(logits.data()[i], kRefLogits[i]) << "logit " << i;
  // logits() is a view of the same buffer.
  EXPECT_EQ(&session.logits(), &logits);
}

TEST(InferenceSession, InputGradientsAllMatchSeedBuildBitExact) {
  Network net = reference_net();
  InferenceSession session(net);
  const math::Matrix x = random_input(3, 4, 9);
  const auto grads = session.input_gradients_all(x);
  ASSERT_EQ(grads.size(), 2u);
  for (std::size_t i = 0; i < 12; ++i) {
    EXPECT_EQ(grads[0].data()[i], kRefGrads0[i]) << "grads[0][" << i << "]";
    EXPECT_EQ(grads[1].data()[i], kRefGrads1[i]) << "grads[1][" << i << "]";
  }
}

TEST(InferenceSession, BackwardMatchesSeedBuildBitExact) {
  Network net = reference_net();
  InferenceSession session(net);
  session.bind_params(net);  // workspace must exist; grads start zeroed
  const math::Matrix x = random_input(3, 4, 9);
  session.zero_param_grads();
  session.forward(x);
  // The seed build formed both results in one sweep; the attack sweep now
  // forms dLoss/dInput and the training sweep the parameter gradients.
  const math::Matrix& gin = session.backward_input(math::Matrix(3, 2, 1.0f));
  for (std::size_t i = 0; i < 12; ++i)
    EXPECT_EQ(gin.data()[i], kRefBackward[i]) << "grad_input " << i;
  session.backward_params(math::Matrix(3, 2, 1.0f));
  const auto params = session.bind_params(net);
  for (std::size_t i = 0; i < 6; ++i)
    EXPECT_EQ(params[0].grad->data()[i], kRefWeightGrad0First6[i])
        << "weight grad " << i;
}

TEST(InferenceSession, InputGradientsAllAgreesWithPerClassGradient) {
  MlpConfig cfg;
  cfg.dims = {6, 12, 3};
  cfg.seed = 17;
  Network net = make_mlp(cfg);
  InferenceSession session(net);
  const math::Matrix x = random_input(4, 6, 18);
  // Copy: the per-class calls below reuse the session buffers.
  const auto all_span = session.input_gradients_all(x);
  const std::vector<math::Matrix> all(all_span.begin(), all_span.end());
  ASSERT_EQ(all.size(), 3u);
  for (int c = 0; c < 3; ++c) {
    const math::Matrix& single = session.input_gradient(x, c);
    EXPECT_EQ(single, all[static_cast<std::size_t>(c)]) << "class " << c;
  }
}

TEST(InferenceSession, InputGradientSkipsParamAccumulators) {
  Network net = reference_net();
  InferenceSession session(net);
  session.zero_param_grads();
  session.input_gradient(random_input(2, 4, 33), 0);
  session.input_gradients_all(random_input(2, 4, 34));
  for (const auto& p : session.bind_params(net))
    for (std::size_t i = 0; i < p.grad->size(); ++i)
      EXPECT_EQ(p.grad->data()[i], 0.0f);
}

TEST(InferenceSession, ConstructionAndValidation) {
  Network empty;
  EXPECT_THROW(InferenceSession{empty}, std::invalid_argument);

  Network net = reference_net();
  InferenceSession session(net);
  EXPECT_THROW(session.input_gradient(random_input(1, 4, 1), 2),
               std::invalid_argument);
  EXPECT_THROW(session.input_gradient(random_input(1, 4, 1), -1),
               std::invalid_argument);
  // backward before/with a mismatched logits shape.
  session.forward(random_input(3, 4, 2));
  EXPECT_THROW(session.backward_params(math::Matrix(2, 2, 1.0f)),
               std::invalid_argument);
  EXPECT_THROW(session.backward_input(math::Matrix(2, 2, 1.0f)),
               std::invalid_argument);
  // bind_params only accepts the session's own network.
  Network other = reference_net();
  EXPECT_THROW(session.bind_params(other), std::invalid_argument);
}

TEST(InferenceSession, SteadyStateForwardAllocatesNothing) {
  MlpConfig cfg;
  cfg.dims = {16, 32, 8, 2};
  cfg.seed = 1;
  Network net = make_mlp(cfg);
  InferenceSession session(net, 8);
  const math::Matrix x = random_input(8, 16, 2);

  // Warm up every buffer (and OpenMP internals) at this batch shape.
  for (int i = 0; i < 3; ++i) {
    session.forward(x);
    session.predict(x);
    session.input_gradient(x, 0);
  }

  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 50; ++i) session.forward(x);
  EXPECT_EQ(g_allocations.load() - before, 0u)
      << "forward allocated in steady state";

  const std::size_t before_grad = g_allocations.load();
  for (int i = 0; i < 50; ++i) {
    session.predict(x);
    session.input_gradient(x, 0);
  }
  EXPECT_EQ(g_allocations.load() - before_grad, 0u)
      << "predict/input_gradient allocated in steady state";

  // A bound session drops its W^T packs after every forward and repacks
  // at the next backward; the repack must reuse the packs' capacity.
  InferenceSession trainer(net, 8);
  trainer.bind_params(net);
  const math::Matrix grad_logits(8, 2, 0.5f);
  for (int i = 0; i < 3; ++i) {
    trainer.forward(x);
    trainer.backward_params(grad_logits);
  }
  const std::size_t before_train = g_allocations.load();
  for (int i = 0; i < 50; ++i) {
    trainer.forward(x);
    trainer.backward_params(grad_logits);
  }
  EXPECT_EQ(g_allocations.load() - before_train, 0u)
      << "bound training step allocated in steady state";
}

TEST(InferenceSession, BoundSessionBackwardSeesEveryOptimizerStep) {
  // Each Adam::step rewrites the weights between a backward and the next
  // forward. The bound session's next sweeps must read the new weights
  // (its W^T packs are dropped by the forward), byte for byte like a
  // fresh session on the updated network: the attack sweep's dLoss/dInput
  // and the training sweep's parameter gradients both.
  MlpConfig cfg;
  cfg.dims = {16, 32, 8, 2};
  cfg.seed = 7;
  Network net = make_mlp(cfg);
  InferenceSession session(net, 8);
  const std::vector<ParamRef> params = session.bind_params(net);
  Adam adam(0.5f);
  const math::Matrix x = random_input(8, 16, 11);
  const math::Matrix grad_logits = random_input(8, 2, 12);
  const auto same_bytes = [](const math::Matrix& a, const math::Matrix& b) {
    return a.same_shape(b) &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
  };
  for (int step = 0; step < 3; ++step) {
    session.zero_param_grads();
    session.forward(x);
    session.backward_params(grad_logits);
    const math::Matrix& got = session.backward_input(grad_logits);

    InferenceSession fresh(net, 8);
    const std::vector<ParamRef> fresh_params = fresh.bind_params(net);
    fresh.zero_param_grads();
    fresh.forward(x);
    fresh.backward_params(grad_logits);
    const math::Matrix& want = fresh.backward_input(grad_logits);
    EXPECT_TRUE(same_bytes(got, want))
        << "grad_input differs from a fresh session at step " << step;
    ASSERT_EQ(params.size(), fresh_params.size());
    for (std::size_t p = 0; p < params.size(); ++p)
      EXPECT_TRUE(same_bytes(*params[p].grad, *fresh_params[p].grad))
          << "parameter gradient " << p << " differs at step " << step;
    adam.step(params);
  }
}

TEST(InferenceSession, ParamSweepNeverPacksLayerZero) {
  // Layer 0 is 64 -> 8, so its Wᵀ pack is the only 8 x 64 float buffer a
  // sweep at batch 4 could allocate: layer 0's grad_input is 4 x 64 and
  // reserved up front, and the accumulators exist from bind_params.
  MlpConfig cfg;
  cfg.dims = {64, 8, 2};
  cfg.seed = 4;
  Network net = make_mlp(cfg);
  const math::Matrix x = random_input(4, 64, 5);
  const math::Matrix grad_logits = random_input(4, 2, 6);
  InferenceSession trainer(net, 4);
  trainer.bind_params(net);

  g_watched_hits.store(0);
  g_watched_size.store(8 * 64 * sizeof(float));
  for (int step = 0; step < 3; ++step) {
    trainer.zero_param_grads();
    trainer.forward(x);
    trainer.backward_params(grad_logits);
  }
  EXPECT_EQ(g_watched_hits.load(), 0u)
      << "the training sweep packed layer 0's W^T";
  // Control: the attack sweep through the same session does build that
  // pack, so the hook would have seen it.
  trainer.backward_input(grad_logits);
  g_watched_size.store(0);
  EXPECT_EQ(g_watched_hits.load(), 1u);
}

TEST(InferenceSession, SmallerBatchAfterLargerStaysAllocationFree) {
  MlpConfig cfg;
  cfg.dims = {8, 16, 2};
  cfg.seed = 2;
  Network net = make_mlp(cfg);
  InferenceSession session(net, 16);
  const math::Matrix big = random_input(16, 8, 3);
  const math::Matrix small = random_input(4, 8, 4);
  session.forward(big);
  session.forward(small);
  session.forward(big);  // capacity retained from max_batch
  const std::size_t before = g_allocations.load();
  session.forward(small);
  session.forward(big);
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

bool same_bytes(const math::Matrix& a, const math::Matrix& b) {
  return a.same_shape(b) &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

TEST(InferenceSession, RetainedRowsMatchAFreshForwardBitExact) {
  // forward(x), retain_rows(keep), then a gradient call: bit for bit what a
  // fresh session gives for forward(x[keep]), for the binary and the
  // per-class gradients both.
  for (const std::size_t classes : {2u, 3u}) {
    MlpConfig cfg;
    cfg.dims = {24, 32, 16, classes};
    cfg.seed = 8;
    const Network net = make_mlp(cfg);
    const math::Matrix x = random_input(9, 24, 9);
    const std::array<std::size_t, 4> keep = {0, 2, 3, 7};
    const math::Matrix kept = x.gather_rows(keep);

    InferenceSession fresh(net);
    const math::Matrix want_logits = fresh.forward(kept);
    const math::Matrix want_grad = fresh.input_gradient(kept, 1);
    const auto want_all_span = fresh.input_gradients_all(kept);
    const std::vector<math::Matrix> want_all(want_all_span.begin(),
                                             want_all_span.end());

    InferenceSession session(net, 9);
    session.forward(x);
    session.retain_rows(keep);
    EXPECT_TRUE(same_bytes(session.logits(), want_logits)) << classes;
    EXPECT_TRUE(same_bytes(session.input_gradient(1), want_grad)) << classes;
    const auto all = session.input_gradients_all();
    ASSERT_EQ(all.size(), classes);
    for (std::size_t c = 0; c < classes; ++c)
      EXPECT_TRUE(same_bytes(all[c], want_all[c])) << classes << " " << c;

    // Retaining again compacts the compacted tape.
    const std::array<std::size_t, 2> again = {1, 3};
    session.retain_rows(again);
    fresh.forward(kept.gather_rows(again));
    EXPECT_TRUE(same_bytes(session.input_gradient(1),
                           fresh.input_gradient(1)))
        << classes;
  }
}

TEST(InferenceSession, RetainRowsAllocatesNothing) {
  MlpConfig cfg;
  cfg.dims = {16, 32, 8, 2};
  cfg.seed = 1;
  const Network net = make_mlp(cfg);
  InferenceSession session(net, 8);
  const math::Matrix x = random_input(8, 16, 2);
  const std::array<std::size_t, 3> keep = {1, 4, 5};
  session.forward(x);
  session.input_gradient(0);  // builds the W^T packs
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < 20; ++i) {
    session.forward(x);
    session.retain_rows(keep);
    session.input_gradient(0);
  }
  EXPECT_EQ(g_allocations.load() - before, 0u);
}

TEST(InferenceSession, RetainRowsRejectsUnorderedOrOutOfRangeRows) {
  Network net = reference_net();
  InferenceSession session(net);
  session.forward(random_input(4, 4, 1));
  const std::array<std::size_t, 2> unordered = {2, 1};
  const std::array<std::size_t, 2> repeated = {1, 1};
  const std::array<std::size_t, 2> out_of_range = {0, 4};
  EXPECT_THROW(session.retain_rows(unordered), std::invalid_argument);
  EXPECT_THROW(session.retain_rows(repeated), std::invalid_argument);
  EXPECT_THROW(session.retain_rows(out_of_range), std::invalid_argument);
}

TEST(InferenceSession, GradientsNeedATapeAndTrainingNeedsBinding) {
  Network net = reference_net();
  InferenceSession session(net);
  EXPECT_THROW(session.input_gradient(0), std::logic_error);
  EXPECT_THROW(session.input_gradients_all(), std::logic_error);
  session.forward(random_input(3, 4, 2));
  EXPECT_THROW(session.backward_params(math::Matrix(3, 2, 1.0f)),
               std::logic_error);
  session.bind_params(net);
  session.zero_param_grads();
  EXPECT_NO_THROW(session.backward_params(math::Matrix(3, 2, 1.0f)));
}

TEST(InferenceSession, ParamAccumulatorsExistFromBindParams) {
  // Layer 0 is 64 -> 8: its weight accumulator is the one 64 x 8 float
  // buffer. An attack session (max_batch 4, so no activation buffer has
  // that size) never allocates it; bind_params allocates it once.
  MlpConfig cfg;
  cfg.dims = {64, 8, 2};
  cfg.seed = 4;
  Network net = make_mlp(cfg);
  g_watched_hits.store(0);
  g_watched_size.store(64 * 8 * sizeof(float));
  InferenceSession session(net, 4);
  session.forward(random_input(4, 64, 5));
  EXPECT_EQ(g_watched_hits.load(), 0u) << "an inference session allocated "
                                          "a parameter accumulator";
  session.bind_params(net);
  session.bind_params(net);  // a second call reuses the accumulators
  g_watched_size.store(0);
  EXPECT_EQ(g_watched_hits.load(), 1u);
}

TEST(InferenceSession, SharedNetworkConcurrentSessionsMatchSerial) {
  MlpConfig cfg;
  cfg.dims = {12, 24, 8, 2};
  cfg.seed = 41;
  const Network net = make_mlp(cfg);

  constexpr std::size_t kThreads = 4;
  std::vector<math::Matrix> inputs;
  for (std::size_t t = 0; t < kThreads; ++t)
    inputs.push_back(random_input(6, 12, 100 + t));

  // Serial reference, one session.
  std::vector<math::Matrix> want_logits, want_grads;
  {
    InferenceSession session(net);
    for (const auto& x : inputs) {
      want_logits.push_back(session.forward(x));
      want_grads.push_back(session.input_gradient(x, 0));
    }
  }

  // One shared (const) network, one session per thread.
  std::vector<math::Matrix> got_logits(kThreads), got_grads(kThreads);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      InferenceSession session(net, 6);
      for (int repeat = 0; repeat < 25; ++repeat) {
        got_logits[t] = session.forward(inputs[t]);
        got_grads[t] = session.input_gradient(inputs[t], 0);
      }
    });
  }
  for (auto& th : threads) th.join();

  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(got_logits[t], want_logits[t]) << "thread " << t;
    EXPECT_EQ(got_grads[t], want_grads[t]) << "thread " << t;
  }
}

TEST(JsmaSessionParity, OutcomesMatchSeedBuildOn491FeatureDetector) {
  // The ISSUE acceptance criterion: identical evaded flags and
  // features_changed counts on the fixed-seed dataset, regardless of the
  // session refactor and OpenMP sharding.
  MlpConfig cfg;
  cfg.dims = {491, 64, 32, 2};
  cfg.seed = 5;
  const Network net = make_mlp(cfg);
  const math::Matrix x = random_input(32, 491, 6);

  attack::JsmaConfig jcfg;
  jcfg.theta = 0.1f;
  jcfg.gamma = 0.025f;
  const attack::Jsma jsma(jcfg);
  const attack::AttackResult res = jsma.craft(net, x);

  const char* want_evaded = "00000000001000100010000101000001";
  constexpr std::size_t want_changed[32] = {
      12, 12, 12, 12, 12, 12, 12, 12, 12, 12, 0,  12, 12, 12, 7, 12,
      12, 12, 0,  12, 12, 12, 12, 9,  12, 0,  12, 12, 12, 12, 12, 6};
  ASSERT_EQ(res.size(), 32u);
  for (std::size_t i = 0; i < 32; ++i) {
    EXPECT_EQ(res.evaded[i], want_evaded[i] == '1') << "sample " << i;
    EXPECT_EQ(res.features_changed[i], want_changed[i]) << "sample " << i;
  }
  EXPECT_NEAR(res.mean_l2(), 0.298181068336209, 1e-12);
}

/// FNV-1a over the bytes of `n` values, as hex: pins a float or double
/// buffer bit for bit in one short literal.
template <typename T>
std::string hash_hex(const T* data, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto* bytes = reinterpret_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < n * sizeof(T); ++i) {
    h ^= bytes[i];
    h *= 0x100000001b3ull;
  }
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(h));
  return out;
}

/// One crafting outcome in comparable form: evaded as a '0'/'1' string,
/// features_changed comma-joined, adversarial and l2 as byte hashes.
struct CraftPin {
  std::string evaded;
  std::string features_changed;
  std::string adversarial_hash;
  std::string l2_hash;
};

CraftPin pin_of(const attack::AttackResult& r) {
  std::string evaded, changed;
  for (std::size_t i = 0; i < r.size(); ++i) {
    evaded += r.evaded[i] ? '1' : '0';
    if (i > 0) changed += ',';
    changed += std::to_string(r.features_changed[i]);
  }
  return {evaded, changed,
          hash_hex(r.adversarial.data(), r.adversarial.size()),
          hash_hex(r.l2_perturbation.data(), r.l2_perturbation.size())};
}

/// Crafts under OpenMP teams of 1 and 3 (one and three shards) and
/// compares each outcome with `want`, captured from the craft loop that ran
/// a predict before and after its budget loop.
void expect_pinned(const Network& net, const math::Matrix& x,
                   const attack::JsmaConfig& config, const CraftPin& want) {
#ifdef _OPENMP
  const int saved_team = omp_get_max_threads();
  for (const int team : {1, 3}) {
    omp_set_num_threads(team);
#else
  for (const int team : {1}) {
#endif
    const CraftPin got = pin_of(attack::Jsma(config).craft(net, x));
    EXPECT_EQ(got.evaded, want.evaded) << "team " << team;
    EXPECT_EQ(got.features_changed, want.features_changed) << "team " << team;
    EXPECT_EQ(got.adversarial_hash, want.adversarial_hash) << "team " << team;
    EXPECT_EQ(got.l2_hash, want.l2_hash) << "team " << team;
  }
#ifdef _OPENMP
  omp_set_num_threads(saved_team);
#endif
}

/// A 40-feature detector trained on synthetic rows where features 0..19
/// run high in malware and 20..39 in clean ones, and the first 48 malware
/// rows of its training set. Most of them evade after a few added
/// features, so the craft loop stops rows partway through its budget.
struct TrainedDetector {
  Network net;
  math::Matrix malware;
};

const TrainedDetector& trained_detector() {
  static const TrainedDetector detector = [] {
    constexpr std::size_t kRows = 400, kCols = 40;
    MlpConfig cfg;
    cfg.dims = {kCols, 16, 2};
    cfg.seed = 13;
    Network net = make_mlp(cfg);
    math::Rng rng(14);
    LabeledData data;
    data.x = math::Matrix(kRows, kCols);
    data.labels.resize(kRows);
    for (std::size_t i = 0; i < kRows; ++i) {
      const int label = static_cast<int>(i % 2);  // 1 = malware
      for (std::size_t j = 0; j < kCols; ++j) {
        const bool hot = label == 1 ? j < kCols / 2 : j >= kCols / 2;
        data.x(i, j) = static_cast<float>(
            std::clamp(hot ? 0.5 + 0.2 * rng.normal()
                           : 0.1 + 0.08 * rng.normal(),
                       0.0, 1.0));
      }
      data.labels[i] = label;
    }
    TrainConfig tc;
    tc.epochs = 20;
    tc.batch_size = 64;
    tc.learning_rate = 0.01f;
    train(net, data, tc);
    math::Matrix malware(0, kCols);
    for (std::size_t i = 1; malware.rows() < 48; i += 2)
      malware.append_row(data.x.row(i));
    return TrainedDetector{std::move(net), std::move(malware)};
  }();
  return detector;
}

TEST(JsmaSessionParity, TrainedDetectorEarlyStopIsPinned) {
  // Most rows evade partway through the 14-feature budget; the rest
  // spend all of it.
  const TrainedDetector& d = trained_detector();
  attack::JsmaConfig cfg;
  cfg.theta = 0.5f;
  cfg.gamma = 0.35f;
  expect_pinned(d.net, d.malware, cfg,
                {"001111110111111111110010011101111100101111110111",
                 "14,14,12,13,14,14,11,11,14,14,11,12,10,14,14,12,12,13,"
                 "11,10,14,14,13,14,14,14,12,11,14,12,12,12,9,11,14,14,14,"
                 "14,12,11,14,12,12,12,14,13,12,14",
                 "0111b66a7173e4e3", "73d6848eeb3ade88"});
}

TEST(JsmaSessionParity, TrainedDetectorFullBudgetIsPinned) {
  const TrainedDetector& d = trained_detector();
  attack::JsmaConfig cfg;
  cfg.theta = 0.5f;
  cfg.gamma = 0.3f;
  cfg.early_stop = false;
  expect_pinned(d.net, d.malware, cfg,
                {"001000110011100110110000001101111100001101110010",
                 "12,12,12,12,12,12,12,12,12,12,12,12,12,12,12,12,12,12,"
                 "12,12,12,12,12,12,12,12,12,12,12,12,12,12,12,12,12,12,"
                 "12,12,12,12,12,12,12,12,12,12,12,12",
                 "ddec7e6d480dc6fe", "779c6d6310b56c2a"});
}

TEST(JsmaSessionParity, TrainedDetectorExhaustedSaliencyIsPinned) {
  // A 30-feature budget at theta 0.25: every row runs out of admissible
  // features before its budget.
  const TrainedDetector& d = trained_detector();
  attack::JsmaConfig cfg;
  cfg.theta = 0.25f;
  cfg.gamma = 0.75f;
  cfg.early_stop = false;
  expect_pinned(d.net, d.malware, cfg,
                {"000000000000000000000000000000000000000000000000",
                 "19,19,19,19,19,19,19,19,19,19,19,19,19,19,19,19,19,19,"
                 "19,19,19,19,19,19,19,19,19,19,19,19,19,19,19,19,19,19,"
                 "19,19,19,19,19,19,19,19,19,19,19,19",
                 "ffc6718792f08798", "3ab74561a31629a6"});
}

TEST(JsmaSessionParity, TrainedDetectorAllowRepeatIsPinned) {
  const TrainedDetector& d = trained_detector();
  attack::JsmaConfig cfg;
  cfg.theta = 0.25f;
  cfg.gamma = 0.75f;
  cfg.allow_repeat = true;
  expect_pinned(d.net, d.malware, cfg,
                {"111111111111111111111111011111111111111111111111",
                 "7,7,6,7,7,8,5,5,7,7,5,6,6,7,7,6,6,7,6,5,8,7,6,8,8,7,6,6,"
                 "8,5,6,6,5,5,7,7,7,7,7,5,7,6,7,6,7,6,6,8",
                 "f84f458a78cdf8f0", "7affaa42c25e1093"});
}

TEST(JsmaSessionParity, ThreeClassNetworkIsPinned) {
  // More than two classes takes the per-class Jacobian saliency map.
  MlpConfig net_cfg;
  net_cfg.dims = {40, 16, 3};
  net_cfg.seed = 21;
  const Network net = make_mlp(net_cfg);
  attack::JsmaConfig cfg;
  cfg.theta = 0.6f;
  cfg.gamma = 0.2f;
  cfg.target_class = 1;
  expect_pinned(net, random_input(24, 40, 22), cfg,
                {"110111111111111111011111",
                 "4,0,8,0,1,1,2,4,5,0,5,3,4,1,6,0,2,6,8,1,2,4,0,0",
                 "0dda1f8091ad2bf3", "d4fc4fa2855f74d0"});
}

}  // namespace
}  // namespace mev::nn
