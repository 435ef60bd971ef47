// Source-level (live) grey-box attack — the paper's third grey-box
// experiment (§III-B): a researcher adds one API call to the malware
// source multiple times and re-runs the detector. Here the "source edit"
// is an append to the API log, which is exactly what the edit does to the
// feature pipeline's input.
//
// The attack has two steps, matching the paper:
//  1. use the ATTACKER'S substitute model to choose which API to add
//     (one JSMA saliency step), and
//  2. insert that API k times and measure the TARGET detector's malware
//     confidence through the full log -> features -> DNN pipeline.
#pragma once

#include <string>
#include <vector>

#include "data/api_log.hpp"
#include "features/pipeline.hpp"
#include "nn/network.hpp"

namespace mev::attack {

struct LiveTestPoint {
  std::size_t insertions = 0;        // API added this many times
  double malware_confidence = 0.0;   // target model P(malware)
  int predicted_class = 1;
};

struct LiveTestResult {
  std::string api_name;              // the inserted API
  std::size_t feature_index = 0;
  std::vector<LiveTestPoint> points; // one per insertion count 0..k
};

/// Feature-space movement produced by adding each API exactly once to
/// `raw_counts`, through an elementwise transform (both CountTransform and
/// BinaryTransform are elementwise).
std::vector<float> per_call_feature_delta(
    const features::FeaturePipeline& pipeline,
    std::span<const float> raw_counts);

/// Runs the live test: for k = 0..max_insertions, appends the API k times
/// to a copy of the log, re-extracts features through `pipeline`, and
/// records the target model's malware confidence.
LiveTestResult run_live_test(const nn::Network& target_model,
                             const features::FeaturePipeline& pipeline,
                             const data::ApiLog& malware_log,
                             std::size_t api_feature_index,
                             std::size_t max_insertions = 8);

/// Convenience overload that first selects the API with `craft_model`:
/// it shortlists the features whose increase most raises the craft
/// model's clean probability (gradient x the movement the insertion budget
/// can buy), simulates each insertion against `craft_model`, and runs the
/// live test with the best one. Throws std::runtime_error when no API can
/// still be added (every feature saturated).
LiveTestResult run_live_test(const nn::Network& target_model,
                             const nn::Network& craft_model,
                             const features::FeaturePipeline& pipeline,
                             const data::ApiLog& malware_log,
                             std::size_t max_insertions = 8);

}  // namespace mev::attack
