// InferenceSession tests: exact parity with the pre-session implementation
// (reference values captured from the seed build, printed with %a), the
// zero-allocation steady state, and thread-safety of shared networks.
#include "nn/session.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <stdexcept>
#include <thread>
#include <vector>

#include "attack/jsma.hpp"
#include "math/rng.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"

// ---------------------------------------------------------------------------
// Allocation counting hook: replaces global operator new/delete for this
// test binary so the steady-state test can assert "no heap traffic".
// ---------------------------------------------------------------------------
namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
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
  session.forward(x, false);
  const math::Matrix& gin =
      session.backward(math::Matrix(3, 2, 1.0f), true);
  for (std::size_t i = 0; i < 12; ++i)
    EXPECT_EQ(gin.data()[i], kRefBackward[i]) << "grad_input " << i;
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
  EXPECT_THROW(session.backward(math::Matrix(2, 2, 1.0f), true),
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
    trainer.forward(x, /*training=*/true);
    trainer.backward(grad_logits, /*accumulate_param_grads=*/true);
  }
  const std::size_t before_train = g_allocations.load();
  for (int i = 0; i < 50; ++i) {
    trainer.forward(x, /*training=*/true);
    trainer.backward(grad_logits, /*accumulate_param_grads=*/true);
  }
  EXPECT_EQ(g_allocations.load() - before_train, 0u)
      << "bound training step allocated in steady state";
}

TEST(InferenceSession, BoundSessionBackwardSeesEveryOptimizerStep) {
  // Each Sgd::step rewrites the weights between a backward and the next
  // forward. The bound session's next backward must read the new weights
  // (its W^T packs are dropped by the forward), byte for byte like a
  // fresh session on the updated network.
  MlpConfig cfg;
  cfg.dims = {16, 32, 8, 2};
  cfg.seed = 7;
  Network net = make_mlp(cfg);
  InferenceSession session(net, 8);
  const std::vector<ParamRef> params = session.bind_params(net);
  SgdConfig sgd_cfg;
  sgd_cfg.learning_rate = 0.5f;
  Sgd sgd(sgd_cfg);
  const math::Matrix x = random_input(8, 16, 11);
  const math::Matrix grad_logits = random_input(8, 2, 12);
  for (int step = 0; step < 3; ++step) {
    session.zero_param_grads();
    session.forward(x, /*training=*/true);
    const math::Matrix& got =
        session.backward(grad_logits, /*accumulate_param_grads=*/true);
    InferenceSession fresh(net, 8);
    fresh.forward(x, /*training=*/true);
    const math::Matrix& want =
        fresh.backward(grad_logits, /*accumulate_param_grads=*/false);
    ASSERT_TRUE(got.same_shape(want));
    EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(float)),
              0)
        << "grad_input differs from a fresh session at step " << step;
    sgd.step(params);
  }
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

}  // namespace
}  // namespace mev::nn
