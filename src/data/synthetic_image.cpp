#include "data/synthetic_image.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "tensor/linalg.h"

namespace collapois::data {

SyntheticImageGenerator::SyntheticImageGenerator(SyntheticImageConfig config,
                                                 std::uint64_t seed)
    : config_(config) {
  if (config_.num_classes == 0 || config_.height == 0 || config_.width == 0) {
    throw std::invalid_argument("SyntheticImageGenerator: empty config");
  }
  if (config_.prototype_grid < 2) {
    throw std::invalid_argument(
        "SyntheticImageGenerator: prototype_grid must be >= 2");
  }
  stats::Rng rng(seed);
  prototypes_.reserve(config_.num_classes);
  const std::size_t g = config_.prototype_grid;
  for (std::size_t cls = 0; cls < config_.num_classes; ++cls) {
    // Random control grid in [0, 1].
    Tensor grid({g, g});
    for (auto& v : grid.storage()) {
      v = static_cast<float>(rng.uniform());
    }
    // Bilinear upsample to the target resolution.
    Tensor proto({config_.height, config_.width});
    for (std::size_t y = 0; y < config_.height; ++y) {
      for (std::size_t x = 0; x < config_.width; ++x) {
        const double gy = static_cast<double>(y) /
                          static_cast<double>(config_.height - 1) *
                          static_cast<double>(g - 1);
        const double gx = static_cast<double>(x) /
                          static_cast<double>(config_.width - 1) *
                          static_cast<double>(g - 1);
        proto.at(y, x) = tensor::bilinear_sample(grid, gy, gx);
      }
    }
    // Contrast-stretch so prototypes occupy the full dynamic range and
    // classes are comfortably separable before noise.
    const auto [mn_it, mx_it] =
        std::minmax_element(proto.storage().begin(), proto.storage().end());
    const float mn = *mn_it;
    const float range = std::max(*mx_it - mn, 1e-6f);
    for (auto& v : proto.storage()) v = (v - mn) / range;
    prototypes_.push_back(std::move(proto));
  }
}

const Tensor& SyntheticImageGenerator::prototype(std::size_t label) const {
  return prototypes_.at(label);
}

Example SyntheticImageGenerator::sample(int label, stats::Rng& rng) const {
  if (label < 0 ||
      static_cast<std::size_t>(label) >= config_.num_classes) {
    throw std::invalid_argument("SyntheticImageGenerator: label out of range");
  }
  Example e{Tensor({1, config_.height, config_.width}), label};
  sample_into(static_cast<std::size_t>(label), rng, e.x.data());
  return e;
}

void SyntheticImageGenerator::sample_into(std::size_t label, stats::Rng& rng,
                                          std::span<float> out) const {
  const std::vector<float>& proto = prototypes_[label].storage();
  const std::size_t h = config_.height;
  const std::size_t w = config_.width;

  int dy = 0;
  int dx = 0;
  if (config_.max_shift > 0) {
    const int span = 2 * config_.max_shift + 1;
    dy = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(span))) -
         config_.max_shift;
    dx = static_cast<int>(rng.uniform_int(static_cast<std::uint64_t>(span))) -
         config_.max_shift;
  }

  for (std::size_t y = 0; y < h; ++y) {
    for (std::size_t x = 0; x < w; ++x) {
      const std::ptrdiff_t sy = static_cast<std::ptrdiff_t>(y) + dy;
      const std::ptrdiff_t sx = static_cast<std::ptrdiff_t>(x) + dx;
      float v = 0.0f;
      if (sy >= 0 && sy < static_cast<std::ptrdiff_t>(h) && sx >= 0 &&
          sx < static_cast<std::ptrdiff_t>(w)) {
        v = proto[static_cast<std::size_t>(sy) * w +
                  static_cast<std::size_t>(sx)];
      }
      v += static_cast<float>(rng.normal(0.0, config_.noise_std));
      out[y * w + x] = std::clamp(v, 0.0f, 1.0f);
    }
  }
}

Dataset SyntheticImageGenerator::generate(
    std::span<const std::size_t> class_counts, stats::Rng& rng) const {
  if (class_counts.size() != config_.num_classes) {
    throw std::invalid_argument(
        "SyntheticImageGenerator::generate: counts size mismatch");
  }
  Dataset d(config_.num_classes, {1, config_.height, config_.width});
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
