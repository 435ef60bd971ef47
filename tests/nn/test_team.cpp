// Team invariance: training, Adam and every session pass give the same
// bits whatever the size of the OpenMP team they split across, including
// batches that leave a thread without a whole 4-row block and tensors
// whose sizes are not multiples of the team.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "math/rng.hpp"
#include "nn/network.hpp"
#include "nn/optimizer.hpp"
#include "nn/session.hpp"
#include "nn/trainer.hpp"

namespace mev::nn {
namespace {

constexpr int kTeams[] = {1, 2, 3};

/// Runs `f` with the OpenMP team set to `team`, then restores it.
template <typename F>
auto at_team([[maybe_unused]] int team, F&& f) {
#ifdef _OPENMP
  const int saved = omp_get_max_threads();
  omp_set_num_threads(team);
  auto result = f();
  omp_set_num_threads(saved);
  return result;
#else
  return f();
#endif
}

std::string hex_of(std::uint64_t h) {
  char out[17];
  std::snprintf(out, sizeof(out), "%016llx",
                static_cast<unsigned long long>(h));
  return out;
}

/// FNV-1a over a byte string, as hex.
std::string fnv_hex(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return hex_of(h);
}

/// n rows of 491 sparse features in [0, 1] (about 30% nonzero, like
/// normalized API counts), with a label that depends on a few of them.
LabeledData team_set(std::size_t n, std::uint64_t seed) {
  math::Rng rng(seed);
  LabeledData d;
  d.x = math::Matrix(n, 491);
  d.labels.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < 491; ++j)
      d.x(i, j) =
          rng.uniform() < 0.7 ? 0.0f : static_cast<float>(rng.uniform());
    d.labels[i] = d.x(i, 0) + d.x(i, 1) > d.x(i, 2) + d.x(i, 3) ? 1 : 0;
  }
  return d;
}

/// Soft targets for train_soft: a smoothed label.
math::Matrix soft_targets_of(const LabeledData& d) {
  math::Matrix soft(d.x.rows(), 2);
  for (std::size_t i = 0; i < d.x.rows(); ++i) {
    const float p = 0.15f + 0.7f * static_cast<float>(d.labels[i]);
    soft(i, 1) = p;
    soft(i, 0) = 1.0f - p;
  }
  return soft;
}

Network team_net() {
  MlpConfig cfg;
  cfg.dims = {491, 48, 64, 48, 2};
  cfg.seed = 29;
  return make_mlp(cfg);
}

/// Trains team_net() for 3 epochs on `n` rows at `batch` (hard labels or
/// soft targets) and hashes its save_network bytes.
std::string trained_hash(std::size_t n, std::size_t batch, bool soft) {
  const LabeledData d = team_set(n, 31);
  Network net = team_net();
  TrainConfig cfg;
  cfg.epochs = 3;
  cfg.batch_size = batch;
  if (soft)
    train_soft(net, d.x, soft_targets_of(d), cfg);
  else
    train(net, d, cfg);
  std::ostringstream os;
  save_network(net, os);
  return fnv_hex(os.str());
}

TEST(TeamInvariance, TrainingMatchesTheOneRegionPerGemmBuild) {
  // Captured from the build that still opened a region per GEMM and ran
  // Adam on one thread; that build gave these hashes at teams 1, 2 and 3.
  // 641 rows at batch 256 end on a 129-row batch; 13 rows at batch 5 end
  // on a 3-row batch, below one 4-row block per thread.
  struct Case {
    std::size_t n, batch;
    bool soft;
    const char* hash;
  };
  constexpr Case kCases[] = {{641, 256, false, "c4c336e96ada414e"},
                             {641, 256, true, "a912d2bcfb99ac30"},
                             {13, 5, false, "76967f779ec0e7a1"},
                             {13, 5, true, "3b40aa4d23a911a0"}};
  for (const Case& c : kCases)
    for (const int team : kTeams)
      EXPECT_EQ(at_team(team,
                        [&] { return trained_hash(c.n, c.batch, c.soft); }),
                c.hash)
          << "n " << c.n << " batch " << c.batch
          << (c.soft ? " train_soft" : " train") << ", team " << team;
}

TEST(TeamInvariance, AdamStepIsTeamInvariant) {
  // 491 x 61 + 61 + 61 x 7 + 7 = 30,446 elements, enough to split; no
  // tensor is a multiple of 2 or 3 elements.
  const auto run = [] {
    std::vector<math::Matrix> values, grads;
    math::Rng rng(17);
    for (const auto& [r, c] : {std::pair<std::size_t, std::size_t>{491, 61},
                               {1, 61},
                               {61, 7},
                               {1, 7}}) {
      values.emplace_back(r, c);
      grads.emplace_back(r, c);
      for (std::size_t i = 0; i < r * c; ++i)
        values.back().data()[i] = static_cast<float>(rng.normal());
    }
    std::vector<ParamRef> params;
    for (std::size_t i = 0; i < values.size(); ++i)
      params.push_back({&values[i], &grads[i]});
    Adam adam(0.01f);
    for (int step = 0; step < 5; ++step) {
      for (auto& g : grads)
        for (std::size_t i = 0; i < g.size(); ++i)
          g.data()[i] = i % 5 == 2 ? 0.0f : static_cast<float>(rng.normal());
      adam.step(params);
    }
    return values;
  };
  const std::vector<math::Matrix> want = at_team(1, run);
  for (const int team : kTeams) {
    const std::vector<math::Matrix> got = at_team(team, run);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < want.size(); ++i)
      EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                            want[i].size() * sizeof(float)),
                0)
          << "tensor " << i << ", team " << team;
  }
}

/// Everything a session pass writes, for one batch size: logits, the
/// training sweep's parameter gradients, the attack sweep's dLoss/dInput
/// and both classes' input gradients.
std::vector<math::Matrix> session_outputs(std::size_t batch) {
  Network net = team_net();
  const LabeledData d = team_set(batch, 43);
  math::Matrix seed(batch, 2);
  math::Rng rng(44);
  for (std::size_t i = 0; i < seed.size(); ++i)
    seed.data()[i] = static_cast<float>(rng.normal());
  std::vector<math::Matrix> out;
  InferenceSession session(net);
  auto params = session.bind_params(net);
  out.push_back(session.forward(d.x));
  session.backward_params(seed);
  for (const ParamRef& p : params) out.push_back(*p.grad);
  out.push_back(session.backward_input(seed));
  out.push_back(session.input_gradient(0));
  out.push_back(session.input_gradient(1));
  // Through the gathering forward too: the batch's rows in reverse.
  std::vector<std::size_t> rows(batch);
  for (std::size_t i = 0; i < batch; ++i) rows[i] = batch - 1 - i;
  out.push_back(session.forward(d.x, rows));
  out.push_back(session.input_gradient(1));
  return out;
}

TEST(TeamInvariance, SessionPassesAreTeamInvariant) {
  // B = 1 and 3 open no region; 5 splits into a 4-row and a 1-row block;
  // 257 gives each thread of 2 or 3 a ragged share.
  for (const std::size_t batch : {1u, 3u, 5u, 257u}) {
    const std::vector<math::Matrix> want =
        at_team(1, [&] { return session_outputs(batch); });
    for (const int team : kTeams) {
      const std::vector<math::Matrix> got =
          at_team(team, [&] { return session_outputs(batch); });
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t i = 0; i < want.size(); ++i) {
        ASSERT_TRUE(got[i].same_shape(want[i]));
        EXPECT_EQ(std::memcmp(got[i].data(), want[i].data(),
                              want[i].size() * sizeof(float)),
                  0)
            << "output " << i << ", batch " << batch << ", team " << team;
      }
    }
  }
}

}  // namespace
}  // namespace mev::nn
