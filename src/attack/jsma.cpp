#include "attack/jsma.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <exception>
#include <numeric>
#include <stdexcept>
#include <vector>

#ifdef _OPENMP
#include <omp.h>
#endif

#include "math/linalg.hpp"
#include "nn/session.hpp"
#include "obs/obs.hpp"

namespace mev::attack {

namespace {

/// `v` if `keep`, else +0, through an integer mask. GCC compiles a select
/// with a 0 arm (`keep ? v : 0.0f`, `std::max(0.0f, v)` before a square)
/// into a compare-and-branch, and the branch on a gradient's sign or a
/// feature's state mispredicts about every other element.
inline float zero_unless(bool keep, float v) {
  return std::bit_cast<float>(std::bit_cast<std::uint32_t>(v) &
                              (0u - static_cast<std::uint32_t>(keep)));
}

/// Destination-passing saliency kernel so the craft loop can reuse one
/// buffer across budget iterations.
void saliency_map_into(std::span<const math::Matrix> grads, int target_class,
                       math::Matrix& saliency) {
  if (grads.empty()) throw std::invalid_argument("saliency_map: no gradients");
  const auto t = static_cast<std::size_t>(target_class);
  if (t >= grads.size())
    throw std::invalid_argument("saliency_map: target class out of range");
  const std::size_t rows = grads[0].rows(), cols = grads[0].cols();
  saliency.resize(rows, cols);
  for (std::size_t i = 0; i < rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) {
      const float target_grad = grads[t](i, j);
      float other = 0.0f;
      for (std::size_t c = 0; c < grads.size(); ++c)
        if (c != t) other += grads[c](i, j);
      // Admissible iff increasing X_j raises the target class and lowers
      // the others.
      const bool admissible = !((target_grad < 0.0f) | (other > 0.0f));
      saliency(i, j) = zero_unless(admissible, target_grad * std::abs(other));
    }
  }
}

/// The binary saliency of Eq. 1, g^2 where g > 0 and +0 elsewhere (NaN
/// included), for a 2-class softmax: the off-target probability gradient
/// is the exact negation of the target's (P0 + P1 = 1), so one backward
/// pass suffices.
void binary_saliency_into(const math::Matrix& grad, math::Matrix& saliency) {
  saliency.resize(grad.rows(), grad.cols());
  const float* g = grad.data();
  float* out = saliency.data();
  for (std::size_t k = 0; k < grad.size(); ++k)
    out[k] = zero_unless(g[k] > 0.0f, g[k] * g[k]);
}

/// The feature to raise next: the first j (strict `>` in j order) with the
/// largest positive saliency among the open features, or
/// `saliency.size()` when there is none. No branch depends on the data.
std::size_t pick_feature(std::span<const float> saliency,
                         const std::uint8_t* open) {
  const std::size_t m = saliency.size();
  float best = 0.0f;
  std::size_t best_j = m;
  for (std::size_t j = 0; j < m; ++j) {
    const float s = zero_unless(open[j] != 0, saliency[j]);
    const bool better = s > best;
    best = better ? s : best;
    best_j = better ? j : best_j;
  }
  return best_j;
}

/// Runs the attack on rows [begin, end), one forward per perturbation.
/// Each pass forwards the rows still attacking and records each row's
/// verdict from its logits; a row stops when it evades (early_stop), when
/// it has spent the budget, or when no feature is admissible, so its last
/// forward saw its final values and that verdict is final. The session's
/// tape is then compacted to the rows that go on, and only they are
/// differentiated and perturbed. All writes land in row-disjoint slices of
/// the shared output buffers, so shards can run concurrently without
/// synchronization (`evaded` is uint8_t, not vector<bool>, precisely so
/// adjacent shards never share a word).
void craft_rows(const JsmaConfig& config, std::size_t budget,
                nn::InferenceSession& session, const math::Matrix& x,
                std::size_t begin, std::size_t end, math::Matrix& adversarial,
                std::uint8_t* evaded, std::size_t* features_changed,
                double* l2) {
  const std::size_t m = x.cols();
  const bool binary = session.network().output_dim() == 2;

  // Per feature j of local row i, at [i * m + j]: whether it was raised,
  // and whether it may still be. A feature closes once it reaches 1
  // (add-only) and, unless repeats are allowed, once it has been raised.
  std::vector<std::uint8_t> perturbed((end - begin) * m, 0);
  std::vector<std::uint8_t> open((end - begin) * m);
  for (std::size_t i = 0; i < end - begin; ++i)
    for (std::size_t j = 0; j < m; ++j)
      open[i * m + j] = !(x(begin + i, j) >= 1.0f);
  std::vector<std::size_t> rows(end - begin);  // absolute, still attacking
  std::iota(rows.begin(), rows.end(), begin);
  std::vector<std::size_t> keep;  // batch positions that go on, reused
  math::Matrix saliency;          // reused across iterations

  for (std::size_t iter = 0; !rows.empty(); ++iter) {
    const math::Matrix& logits = session.forward(adversarial, rows);
    keep.clear();
    for (std::size_t bi = 0; bi < rows.size(); ++bi) {
      const bool clean = static_cast<int>(math::argmax(logits.row(bi))) ==
                         config.target_class;
      evaded[rows[bi]] = clean ? 1 : 0;
      if (iter < budget && !(clean && config.early_stop)) {
        rows[keep.size()] = rows[bi];
        keep.push_back(bi);
      }
    }
    rows.resize(keep.size());
    if (rows.empty()) break;
    session.retain_rows(keep);

    if (binary)
      binary_saliency_into(session.input_gradient(config.target_class),
                           saliency);
    else
      saliency_map_into(session.input_gradients_all(), config.target_class,
                        saliency);

    std::size_t next = 0;
    for (std::size_t bi = 0; bi < rows.size(); ++bi) {
      const std::size_t row = rows[bi];
      const std::size_t at = (row - begin) * m;
      const std::size_t j = pick_feature(saliency.row(bi), open.data() + at);
      if (j == m) continue;  // saliency map exhausted: the row stops
      float& value = adversarial(row, j);
      value = std::min(1.0f, value + config.theta);
      features_changed[row] += perturbed[at + j] == 0 ? 1 : 0;
      perturbed[at + j] = 1;
      if (value >= 1.0f || !config.allow_repeat) open[at + j] = 0;
      rows[next++] = row;
    }
    rows.resize(next);
  }

  for (std::size_t i = begin; i < end; ++i)
    l2[i] = math::l2_distance(x.row(i), adversarial.row(i));
}

}  // namespace

Jsma::Jsma(JsmaConfig config) : config_(config) {
  if (config_.theta < 0.0f)
    throw std::invalid_argument("Jsma: theta must be non-negative");
  if (config_.gamma < 0.0f || config_.gamma > 1.0f)
    throw std::invalid_argument("Jsma: gamma must be in [0, 1]");
}

std::size_t Jsma::feature_budget(std::size_t num_features) const noexcept {
  return static_cast<std::size_t>(
      std::lround(static_cast<double>(config_.gamma) *
                  static_cast<double>(num_features)));
}

math::Matrix Jsma::saliency_map(std::span<const math::Matrix> grads,
                                int target_class) {
  math::Matrix saliency;
  saliency_map_into(grads, target_class, saliency);
  return saliency;
}

AttackResult Jsma::craft(const nn::Network& model,
                         const math::Matrix& x) const {
  const std::size_t n = x.rows(), m = x.cols();
  AttackResult result;
  result.adversarial = x;
  result.evaded.assign(n, false);
  result.features_changed.assign(n, 0);
  result.l2_perturbation.assign(n, 0.0);
  // A zero-strength attack perturbs nothing: one forward, the verdicts.
  const std::size_t budget = config_.theta == 0.0f ? 0 : feature_budget(m);
  // Ambient sinks are resolved HERE, on the calling thread: thread-local
  // Scope overrides do not propagate into the OpenMP shards below, so the
  // tracer pointer is captured and handed to each shard explicitly.
  obs::Tracer* tracer = obs::current_tracer();
  obs::MetricsRegistry* registry = obs::current_registry();
  obs::Span craft_span = obs::span(tracer, "mev.attack.jsma.craft");
  craft_span.arg("samples", static_cast<double>(n));
  craft_span.arg("budget", static_cast<double>(budget));
  if (n == 0) return result;

  // Contiguous sample shards, one session per shard, one shared read-only
  // network. Results are shard-count-invariant (all math is row-wise).
  std::size_t shards = 1;
#ifdef _OPENMP
  shards = std::min<std::size_t>(
      n, static_cast<std::size_t>(std::max(1, omp_get_max_threads())));
#endif
  std::vector<std::uint8_t> evaded(n, 0);
  std::exception_ptr error;
#ifdef _OPENMP
#pragma omp parallel for schedule(static, 1) if (shards > 1)
#endif
  for (std::size_t s = 0; s < shards; ++s) {
    try {
      const std::size_t begin = s * n / shards;
      const std::size_t end = (s + 1) * n / shards;
      if (begin == end) continue;
      obs::Span shard_span = obs::span(tracer, "mev.attack.jsma.shard");
      shard_span.arg("rows", static_cast<double>(end - begin));
      nn::InferenceSession session(model, end - begin);
      craft_rows(config_, budget, session, x, begin, end, result.adversarial,
                 evaded.data(), result.features_changed.data(),
                 result.l2_perturbation.data());
    } catch (...) {
#ifdef _OPENMP
#pragma omp critical
#endif
      if (error == nullptr) error = std::current_exception();
    }
  }
  if (error) std::rethrow_exception(error);

  result.evaded.assign(evaded.begin(), evaded.end());

  // Per-sample crafting metrics, folded in on the calling thread after the
  // shards finish (no contention on the registry from the parallel loop).
  obs::Counter samples_counter = registry->counter(
      "mev.attack.jsma.samples", "samples submitted to JSMA crafting");
  obs::Counter evaded_counter = registry->counter(
      "mev.attack.jsma.evaded", "samples misclassified after crafting");
  obs::Counter flips_counter = registry->counter(
      "mev.attack.jsma.features_flipped", "total features perturbed");
  obs::Histogram flips_histogram = registry->histogram(
      "mev.attack.jsma.features_changed", "features perturbed per sample");
  std::size_t evaded_total = 0, flips_total = 0;
  for (std::size_t i = 0; i < n; ++i) {
    evaded_total += result.evaded[i] ? 1 : 0;
    flips_total += result.features_changed[i];
    flips_histogram.record(result.features_changed[i]);
  }
  samples_counter.inc(n);
  evaded_counter.inc(evaded_total);
  flips_counter.inc(flips_total);
  craft_span.arg("evaded", static_cast<double>(evaded_total));
  return result;
}

}  // namespace mev::attack
