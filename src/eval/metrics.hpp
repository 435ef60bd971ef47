// Evaluation metrics (§II-D): confusion matrix, TPR/TNR, accuracy/F1 and
// detection rate (security-evaluation curves).
//
// Positive class = malware (label 1), matching the paper.
#pragma once

#include <string>
#include <vector>

namespace mev::eval {

struct ConfusionMatrix {
  std::size_t true_positive = 0;   // malware classified malware
  std::size_t true_negative = 0;   // clean classified clean
  std::size_t false_positive = 0;  // clean classified malware
  std::size_t false_negative = 0;  // malware classified clean

  std::size_t total() const noexcept {
    return true_positive + true_negative + false_positive + false_negative;
  }
  std::size_t positives() const noexcept {
    return true_positive + false_negative;
  }
  std::size_t negatives() const noexcept {
    return true_negative + false_positive;
  }

  /// NaN when the corresponding class is absent, mirroring the paper's
  /// Table VI "nan" cells.
  double tpr() const noexcept;
  double tnr() const noexcept;
  double accuracy() const noexcept;
  double precision() const noexcept;
  double f1() const noexcept;
};

/// Builds a confusion matrix from labels and predictions (0 clean,
/// 1 malware). Sizes must match.
ConfusionMatrix confusion(const std::vector<int>& labels,
                          const std::vector<int>& predictions);

/// Fraction of samples predicted as malware — the detection rate of a
/// malware-only (or adversarial-example) set.
double detection_rate(const std::vector<int>& predictions);

/// One point of a security-evaluation curve.
struct CurvePoint {
  double attack_strength = 0.0;  // the swept parameter (gamma or theta)
  double detection_rate = 0.0;
  double mean_l2 = 0.0;          // mean L2 perturbation at this strength
  double mean_features = 0.0;    // mean number of perturbed features
};

/// A labelled series of curve points (one per swept parameter value).
struct SecurityCurve {
  std::string name;            // e.g. "target model" / "substitute model"
  std::string parameter;       // "gamma" or "theta"
  std::vector<CurvePoint> points;
};

}  // namespace mev::eval
