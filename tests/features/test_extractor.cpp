#include "features/extractor.hpp"

#include <gtest/gtest.h>

namespace mev::features {
namespace {

using data::ApiVocab;

TEST(Extractor, CountsOccurrences) {
  const auto& vocab = ApiVocab::instance();
  const CountExtractor extractor(vocab);
  data::ApiLog log;
  log.append_calls("WriteFile", 3);
  log.append_calls("WinExec", 1);
  const auto counts = extractor.extract(log);
  EXPECT_EQ(counts[*vocab.index_of("writefile")], 3.0f);
  EXPECT_EQ(counts[*vocab.index_of("winexec")], 1.0f);
}

TEST(Extractor, UnknownApisAreIgnored) {
  const CountExtractor extractor(ApiVocab::instance());
  data::ApiLog log;
  log.append_calls("NotARealApiName", 5);
  const auto counts = extractor.extract(log);
  double total = 0;
  for (float c : counts) total += c;
  EXPECT_EQ(total, 0.0);
}

TEST(Extractor, EmptyLogGivesZeroVector) {
  const CountExtractor extractor(ApiVocab::instance());
  const auto counts = extractor.extract(data::ApiLog{});
  EXPECT_EQ(counts.size(), data::kNumApiFeatures);
  for (float c : counts) EXPECT_EQ(c, 0.0f);
}

TEST(Extractor, CaseInsensitive) {
  const auto& vocab = ApiVocab::instance();
  const CountExtractor extractor(vocab);
  data::ApiLog log;
  log.append_calls("WRITEFILE", 1);
  log.append_calls("writefile", 1);
  EXPECT_EQ(extractor.extract(log)[*vocab.index_of("writefile")], 2.0f);
}

}  // namespace
}  // namespace mev::features
