#include "core/experiment_config.hpp"

#include <stdexcept>

#include "data/api_vocab.hpp"

namespace mev::core {

std::string to_string(ExperimentScale scale) {
  switch (scale) {
    case ExperimentScale::kTiny: return "tiny";
    case ExperimentScale::kFast: return "fast";
    case ExperimentScale::kFull: return "full";
  }
  return "fast";
}

ExperimentConfig ExperimentConfig::tiny(std::uint64_t seed) {
  ExperimentConfig c;
  c.scale = ExperimentScale::kTiny;
  c.seed = seed;
  return c;
}

ExperimentConfig ExperimentConfig::fast(std::uint64_t seed) {
  ExperimentConfig c;
  c.scale = ExperimentScale::kFast;
  c.seed = seed;
  return c;
}

ExperimentConfig ExperimentConfig::full(std::uint64_t seed) {
  ExperimentConfig c;
  c.scale = ExperimentScale::kFull;
  c.seed = seed;
  return c;
}

ExperimentConfig ExperimentConfig::from_name(const std::string& name,
                                             std::uint64_t seed) {
  if (name == "tiny") return tiny(seed);
  if (name == "fast") return fast(seed);
  if (name == "full") return full(seed);
  throw std::invalid_argument("ExperimentConfig::from_name: " + name +
                              " (expected tiny|fast|full)");
}

data::DatasetSpec ExperimentConfig::dataset_spec() const {
  switch (scale) {
    case ExperimentScale::kTiny: return data::DatasetSpec::scaled(0.010);
    case ExperimentScale::kFast: return data::DatasetSpec::scaled(0.035);
    case ExperimentScale::kFull: return data::DatasetSpec::paper();
  }
  return data::DatasetSpec::scaled(0.035);
}

nn::MlpConfig ExperimentConfig::target_architecture() const {
  nn::MlpConfig cfg;
  cfg.seed = seed ^ 0x7461726765740000ULL;  // "target"
  switch (scale) {
    case ExperimentScale::kTiny:
      cfg.dims = {data::kNumApiFeatures, 32, 16, 2};
      break;
    case ExperimentScale::kFast:
      cfg.dims = {data::kNumApiFeatures, 128, 64, 2};
      break;
    case ExperimentScale::kFull:
      // The paper's target is proprietary ("4-layer fully connected DNN");
      // these widths are a plausible stand-in of that depth.
      cfg.dims = {data::kNumApiFeatures, 1024, 512, 2};
      break;
  }
  return cfg;
}

nn::MlpConfig ExperimentConfig::substitute_architecture(
    std::size_t input_dim) const {
  nn::MlpConfig cfg;
  cfg.seed = seed ^ 0x7375627374000000ULL;  // "subst"
  switch (scale) {
    case ExperimentScale::kTiny:
      cfg.dims = {input_dim, 48, 64, 48, 2};
      break;
    case ExperimentScale::kFast:
      // Table IV widths divided by ~6, depth preserved.
      cfg.dims = {input_dim, 192, 240, 208, 2};
      break;
    case ExperimentScale::kFull:
      // Table IV exactly.
      cfg.dims = {input_dim, 1200, 1500, 1300, 2};
      break;
  }
  return cfg;
}

nn::TrainConfig ExperimentConfig::target_training() const {
  nn::TrainConfig cfg;
  cfg.batch_size = 256;
  cfg.learning_rate = 0.001f;
  cfg.shuffle_seed = seed + 1;
  switch (scale) {
    case ExperimentScale::kTiny: cfg.epochs = 10; break;
    case ExperimentScale::kFast: cfg.epochs = 25; break;
    case ExperimentScale::kFull: cfg.epochs = 60; break;
  }
  return cfg;
}

nn::TrainConfig ExperimentConfig::substitute_training() const {
  // Paper: 1000 epochs, batch 256, lr 0.001, Adam. Epochs are scaled; the
  // optimizer, batch size and learning rate match the paper exactly.
  nn::TrainConfig cfg;
  cfg.batch_size = 256;
  cfg.learning_rate = 0.001f;
  cfg.shuffle_seed = seed + 2;
  switch (scale) {
    case ExperimentScale::kTiny: cfg.epochs = 25; break;
    case ExperimentScale::kFast: cfg.epochs = 35; break;
    case ExperimentScale::kFull: cfg.epochs = 1000; break;
  }
  return cfg;
}

std::size_t ExperimentConfig::attack_sample_cap() const {
  switch (scale) {
    case ExperimentScale::kTiny: return 60;
    case ExperimentScale::kFast: return 400;
    case ExperimentScale::kFull: return 28874;  // all test malware
  }
  return 400;
}

}  // namespace mev::core
