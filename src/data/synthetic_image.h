// Synthetic stand-in for FEMNIST (see DESIGN.md, substitutions).
//
// Each class has a smooth random prototype image (a low-resolution random
// control grid bilinearly upsampled). A sample is the prototype with a
// small random spatial shift plus pixel noise, clamped to [0, 1]. This
// yields a learnable 10-way image classification task whose per-client
// label skew — the property the paper's analysis depends on — is imposed
// by the Dirichlet partitioner.
#pragma once

#include <cstddef>

#include "data/dataset.h"
#include "stats/rng.h"

namespace collapois::data {

struct SyntheticImageConfig {
  std::size_t height = 16;
  std::size_t width = 16;
  std::size_t num_classes = 10;
  // Control grid resolution for the smooth prototypes.
  std::size_t prototype_grid = 4;
  // Per-pixel Gaussian noise added to every sample.
  double noise_std = 0.20;
  // Maximum absolute spatial shift (pixels) applied per sample.
  int max_shift = 1;
};

class SyntheticImageGenerator {
 public:
  // Prototypes are drawn once from `seed`; sampling uses caller streams so
  // that the task (the prototypes) is fixed across clients.
  SyntheticImageGenerator(SyntheticImageConfig config, std::uint64_t seed);

  const SyntheticImageConfig& config() const { return config_; }
  std::size_t num_classes() const { return config_.num_classes; }

  // Prototype image of a class, shape [H, W].
  const Tensor& prototype(std::size_t label) const;

  // One sample of the given class, shape [1, H, W] (CHW with one channel).
  Example sample(int label, stats::Rng& rng) const;


  // Dataset with the given per-class counts (size must be num_classes).
  Dataset generate(std::span<const std::size_t> class_counts,
                   stats::Rng& rng) const;

 private:
  // Writes one sample of class `label` into `out` (H x W floats).
  void sample_into(std::size_t label, stats::Rng& rng,
                   std::span<float> out) const;

  SyntheticImageConfig config_;
  std::vector<Tensor> prototypes_;
};

}  // namespace collapois::data
