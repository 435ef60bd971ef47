#include "eval/metrics.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>

namespace mev::eval {

namespace {
constexpr double kNan = std::numeric_limits<double>::quiet_NaN();

double ratio(std::size_t num, std::size_t den) noexcept {
  return den == 0 ? kNan
                  : static_cast<double>(num) / static_cast<double>(den);
}
}  // namespace

double ConfusionMatrix::tpr() const noexcept {
  return ratio(true_positive, positives());
}
double ConfusionMatrix::tnr() const noexcept {
  return ratio(true_negative, negatives());
}
double ConfusionMatrix::accuracy() const noexcept {
  return ratio(true_positive + true_negative, total());
}
double ConfusionMatrix::precision() const noexcept {
  return ratio(true_positive, true_positive + false_positive);
}
double ConfusionMatrix::f1() const noexcept {
  const double p = precision(), r = tpr();
  if (std::isnan(p) || std::isnan(r) || p + r == 0.0) return kNan;
  return 2.0 * p * r / (p + r);
}

ConfusionMatrix confusion(const std::vector<int>& labels,
                          const std::vector<int>& predictions) {
  if (labels.size() != predictions.size())
    throw std::invalid_argument("confusion: size mismatch");
  ConfusionMatrix cm;
  for (std::size_t i = 0; i < labels.size(); ++i) {
    const bool actual_malware = labels[i] == 1;
    const bool predicted_malware = predictions[i] == 1;
    if (actual_malware && predicted_malware) ++cm.true_positive;
    else if (actual_malware && !predicted_malware) ++cm.false_negative;
    else if (!actual_malware && predicted_malware) ++cm.false_positive;
    else ++cm.true_negative;
  }
  return cm;
}

double detection_rate(const std::vector<int>& predictions) {
  if (predictions.empty()) return kNan;
  std::size_t detected = 0;
  for (int p : predictions)
    if (p == 1) ++detected;
  return static_cast<double>(detected) /
         static_cast<double>(predictions.size());
}

}  // namespace mev::eval
