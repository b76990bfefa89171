#include "data/synthetic_text.h"

#include <cmath>
#include <numeric>
#include <stdexcept>

namespace collapois::data {

SyntheticTextGenerator::SyntheticTextGenerator(SyntheticTextConfig config,
                                               std::uint64_t seed)
    : config_(config) {
  if (config_.num_classes == 0 || config_.embedding_dim == 0) {
    throw std::invalid_argument("SyntheticTextGenerator: empty config");
  }
  stats::Rng rng(seed);
  means_.reserve(config_.num_classes);
  for (std::size_t cls = 0; cls < config_.num_classes; ++cls) {
    Tensor mean({config_.embedding_dim});
    double norm2 = 0.0;
    for (auto& v : mean.storage()) {
      v = static_cast<float>(rng.normal());
      norm2 += static_cast<double>(v) * v;
    }
    const double norm = std::sqrt(std::max(norm2, 1e-12));
    for (auto& v : mean.storage()) {
      v = static_cast<float>(v / norm * config_.class_separation);
    }
    means_.push_back(std::move(mean));
  }
}

const Tensor& SyntheticTextGenerator::class_mean(std::size_t label) const {
  return means_.at(label);
}

Example SyntheticTextGenerator::sample(int label, stats::Rng& rng) const {
  if (label < 0 ||
      static_cast<std::size_t>(label) >= config_.num_classes) {
    throw std::invalid_argument("SyntheticTextGenerator: label out of range");
  }
  Example e{Tensor({config_.embedding_dim}), label};
  sample_into(static_cast<std::size_t>(label), rng, e.x.data());
  return e;
}

void SyntheticTextGenerator::sample_into(std::size_t label, stats::Rng& rng,
                                         std::span<float> out) const {
  const std::vector<float>& mean = means_[label].storage();
  for (std::size_t j = 0; j < out.size(); ++j) {
    out[j] = static_cast<float>(mean[j] + rng.normal(0.0, config_.noise_std));
  }
}

Dataset SyntheticTextGenerator::generate(
    std::span<const std::size_t> class_counts, stats::Rng& rng) const {
  if (class_counts.size() != config_.num_classes) {
    throw std::invalid_argument(
        "SyntheticTextGenerator::generate: counts size mismatch");
  }
  Dataset d(config_.num_classes, {config_.embedding_dim});
  d.reserve(std::accumulate(class_counts.begin(), class_counts.end(),
                            std::size_t{0}));
  for (std::size_t cls = 0; cls < class_counts.size(); ++cls) {
    for (std::size_t i = 0; i < class_counts[cls]; ++i) {
      sample_into(cls, rng, d.emplace_row(static_cast<int>(cls)));
    }
  }
  return d;
}

}  // namespace collapois::data
