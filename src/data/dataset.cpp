#include "data/dataset.hpp"

#include <algorithm>
#include <sstream>
#include <stdexcept>

namespace mev::data {

std::vector<std::size_t> CountDataset::indices_of(int label) const {
  std::vector<std::size_t> idx;
  for (std::size_t i = 0; i < labels.size(); ++i)
    if (labels[i] == label) idx.push_back(i);
  return idx;
}

DatasetSpec DatasetSpec::paper() {
  DatasetSpec s;
  s.train_clean = 28594;
  s.train_malware = 28576;
  s.val_clean = 280;
  s.val_malware = 298;
  s.test_clean = 16154;
  s.test_malware = 28874;
  return s;
}

DatasetSpec DatasetSpec::scaled(double factor, std::size_t min_per_class) {
  if (factor <= 0.0 || factor > 1.0)
    throw std::invalid_argument("DatasetSpec::scaled: factor out of (0,1]");
  const DatasetSpec full = paper();
  const auto scale = [&](std::size_t n) {
    return std::max(min_per_class,
                    static_cast<std::size_t>(static_cast<double>(n) * factor));
  };
  DatasetSpec s;
  s.train_clean = scale(full.train_clean);
  s.train_malware = scale(full.train_malware);
  s.val_clean = scale(full.val_clean);
  s.val_malware = scale(full.val_malware);
  s.test_clean = scale(full.test_clean);
  s.test_malware = scale(full.test_malware);
  return s;
}

std::string describe(const DatasetSpec& spec) {
  std::ostringstream os;
  os << "Training Set   " << spec.train_total() << " (" << spec.train_clean
     << " clean and " << spec.train_malware << " malware)\n"
     << "Validation Set " << spec.val_total() << " (" << spec.val_clean
     << " clean and " << spec.val_malware << " malware)\n"
     << "Test Set       " << spec.test_total() << " (" << spec.test_clean
     << " clean and " << spec.test_malware << " malware)";
  return os.str();
}

}  // namespace mev::data
