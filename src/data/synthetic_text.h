// Synthetic stand-in for Sentiment140 behind a frozen BERT encoder (see
// DESIGN.md, substitutions).
//
// The paper freezes BERT and trains a small fully connected head; what the
// head sees is a class-clustered sentence embedding. We generate those
// embeddings directly: each class has a mean vector on a scaled sphere and
// samples are mean + isotropic Gaussian noise.
#pragma once

#include <cstddef>

#include "data/dataset.h"
#include "stats/rng.h"

namespace collapois::data {

struct SyntheticTextConfig {
  std::size_t embedding_dim = 32;
  std::size_t num_classes = 2;  // binary sentiment
  // Distance scale of the class means from the origin.
  double class_separation = 2.5;
  // Isotropic noise around the class mean.
  double noise_std = 1.0;
};

class SyntheticTextGenerator {
 public:
  SyntheticTextGenerator(SyntheticTextConfig config, std::uint64_t seed);

  const SyntheticTextConfig& config() const { return config_; }
  std::size_t num_classes() const { return config_.num_classes; }

  // Class mean embedding, shape [embedding_dim].
  const Tensor& class_mean(std::size_t label) const;

  // One sample of the given class, shape [embedding_dim].
  Example sample(int label, stats::Rng& rng) const;


  Dataset generate(std::span<const std::size_t> class_counts,
                   stats::Rng& rng) const;

 private:
  // Writes one sample of class `label` into `out` (embedding_dim floats).
  void sample_into(std::size_t label, stats::Rng& rng,
                   std::span<float> out) const;

  SyntheticTextConfig config_;
  std::vector<Tensor> means_;
};

}  // namespace collapois::data
