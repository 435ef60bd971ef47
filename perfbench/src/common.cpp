#include <sys/resource.h>

#include <random>
#include <stdexcept>

#include "core/experiment_config.hpp"
#include "data/api_vocab.hpp"
#include "data/synthetic.hpp"
#include "driver.hpp"

namespace perfbench {

const std::string& Options::str(const std::string& key) const {
  const auto it = params.find(key);
  if (it == params.end())
    throw std::invalid_argument("missing workload parameter --set " + key +
                                "=<value>");
  return it->second;
}

void Ledger::set_percentile(const std::string& name, const Percentile& p,
                            const std::string& unit, double scale) {
  check(p.reported, name + " measurable",
        std::to_string(p.beyond) + " of " + std::to_string(p.samples) +
            " samples beyond it, need " + std::to_string(kMinBeyond));
  check(!p.miss, name + " not a miss",
        "rank falls on a failed request");
  set(name, p.value * scale, unit, p.samples);
}

void Ledger::check(bool ok, const std::string& name,
                   const std::string& detail) {
  ++checks;
  if (!ok) failed_checks.emplace_back(name, detail);
}

std::unique_ptr<Environment> build_environment() {
  // The repo's documented experiment seed at the "fast" scale: the
  // 491-128-64-2 target the serving benches and EXPERIMENTS.md use.
  const core::ExperimentConfig config = core::ExperimentConfig::fast(2018);
  const data::ApiVocab& vocab = data::ApiVocab::instance();
  auto env = std::make_unique<Environment>();

  std::int64_t t0 = now_ns();
  const data::GenerativeModel generator(vocab, data::GenerativeConfig{});
  math::Rng rng(config.seed);
  env->bundle = generator.generate_bundle(config.dataset_spec(), rng);
  env->generate_s = static_cast<double>(now_ns() - t0) * 1e-9;

  t0 = now_ns();
  env->trained = core::train_detector(env->bundle,
                                      config.target_architecture(),
                                      config.target_training(), vocab);
  env->train_s = static_cast<double>(now_ns() - t0) * 1e-9;
  return env;
}

std::vector<std::size_t> choose_rows(std::uint64_t seed, std::size_t pool,
                                     std::size_t n) {
  if (n > pool) throw std::invalid_argument("choose_rows: n > pool");
  // Partial Fisher-Yates: the first n slots of a seeded shuffle.
  std::mt19937_64 gen(seed);
  std::vector<std::size_t> all(pool);
  for (std::size_t i = 0; i < pool; ++i) all[i] = i;
  for (std::size_t i = 0; i < n; ++i)
    std::swap(all[i], all[i + gen() % (pool - i)]);
  all.resize(n);
  return all;
}

std::vector<std::size_t> draw_indices(std::uint64_t seed, std::size_t pool,
                                      std::size_t n) {
  std::mt19937_64 gen(seed);
  std::vector<std::size_t> out(n);
  for (std::size_t& i : out) i = gen() % pool;
  return out;
}

std::string encode_json_rows(const math::Matrix& rows) {
  std::string body = "[";
  for (std::size_t r = 0; r < rows.rows(); ++r) {
    body += r ? ",[" : "[";
    const auto row = rows.row(r);
    for (std::size_t c = 0; c < row.size(); ++c) {
      if (c) body += ',';
      body += std::to_string(static_cast<long long>(row[c]));
    }
    body += ']';
  }
  return body + "]";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

}  // namespace perfbench
