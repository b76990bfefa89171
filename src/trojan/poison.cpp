#include "trojan/poison.h"

#include <algorithm>
#include <stdexcept>

namespace collapois::trojan {

namespace {

// Trojans row i of `d` through `scratch` (a tensor of d's example shape)
// and appends it to `out` relabelled to `target_label`.
void add_trojaned_row(const data::Dataset& d, std::size_t i,
                      const Trigger& trigger, int target_label,
                      Tensor& scratch, data::Dataset& out) {
  const auto row = d.row(i);
  std::copy(row.begin(), row.end(), scratch.data().begin());
  out.add_row(trigger.apply(scratch).data(), target_label);
}

}  // namespace

data::Dataset apply_trigger_all(const data::Dataset& d, const Trigger& trigger,
                                int target_label) {
  if (target_label < 0 ||
      static_cast<std::size_t>(target_label) >= d.num_classes()) {
    throw std::invalid_argument("apply_trigger_all: target label out of range");
  }
  data::Dataset out(d.num_classes(), d.example_shape());
  out.reserve(d.size());
  Tensor scratch(d.example_shape());
  for (std::size_t i = 0; i < d.size(); ++i) {
    add_trojaned_row(d, i, trigger, target_label, scratch, out);
  }
  return out;
}

data::Dataset mix_poison(const data::Dataset& clean, const Trigger& trigger,
                         int target_label, double poison_fraction,
                         stats::Rng& rng) {
  if (poison_fraction < 0.0 || poison_fraction > 1.0) {
    throw std::invalid_argument("mix_poison: fraction must be in [0, 1]");
  }
  const std::size_t n_poison = static_cast<std::size_t>(
      poison_fraction * static_cast<double>(clean.size()));
  data::Dataset out(clean.num_classes(), clean.example_shape());
  out.reserve(clean.size() + n_poison);
  out.append(clean);
  if (n_poison == 0) return out;
  const auto picks = rng.sample_without_replacement(clean.size(), n_poison);
  Tensor scratch(clean.example_shape());
  for (std::size_t i : picks) {
    add_trojaned_row(clean, i, trigger, target_label, scratch, out);
  }
  return out;
}

}  // namespace collapois::trojan
