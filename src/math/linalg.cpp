#include "math/linalg.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace mev::math {

namespace {
void require_equal(std::size_t a, std::size_t b, const char* what) {
  if (a != b) throw std::invalid_argument(what);
}
}  // namespace

double l2_distance(std::span<const float> a, std::span<const float> b) {
  require_equal(a.size(), b.size(), "l2_distance: length mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

double l1_distance(std::span<const float> a, std::span<const float> b) {
  require_equal(a.size(), b.size(), "l1_distance: length mismatch");
  double s = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i)
    s += std::abs(static_cast<double>(a[i]) - b[i]);
  return s;
}

void softmax_inplace(std::span<float> logits, float temperature) {
  if (logits.empty()) return;
  if (temperature <= 0.0f)
    throw std::invalid_argument("softmax: temperature must be positive");
  float mx = logits[0];
  for (float v : logits) mx = std::max(mx, v);
  double sum = 0.0;
  for (auto& v : logits) {
    v = std::exp((v - mx) / temperature);
    sum += v;
  }
  const float inv = static_cast<float>(1.0 / sum);
  for (auto& v : logits) v *= inv;
}

std::size_t argmax(std::span<const float> v) {
  if (v.empty()) throw std::invalid_argument("argmax: empty input");
  return static_cast<std::size_t>(
      std::max_element(v.begin(), v.end()) - v.begin());
}

}  // namespace mev::math
