#include "core/trojan_trainer.h"

#include <stdexcept>
#include <utility>

#include "trojan/poison.h"

namespace collapois::core {

TrojanTrainResult train_trojaned_model(nn::Model model,
                                       const data::Dataset& auxiliary,
                                       const trojan::Trigger& trigger,
                                       const TrojanTrainConfig& config,
                                       stats::Rng& rng) {
  if (auxiliary.empty()) {
    throw std::invalid_argument("train_trojaned_model: empty auxiliary data");
  }
  data::Dataset mixed = trojan::mix_poison(
      auxiliary, trigger, config.target_label, config.poison_fraction, rng);
  TrojanTrainResult res;
  res.final_loss = nn::train_sgd(model, mixed, config.sgd, rng);
  res.x = model.get_parameters();
  return res;
}

data::Dataset pool_auxiliary_data(
    const std::vector<const data::Dataset*>& validation_sets) {
  if (validation_sets.empty()) {
    throw std::invalid_argument("pool_auxiliary_data: no sets");
  }
  // Size the pool once: every part's rows, in the first known shape.
  std::size_t rows = 0;
  std::vector<std::size_t> shape;
  for (const data::Dataset* d : validation_sets) {
    if (d == nullptr) {
      throw std::invalid_argument("pool_auxiliary_data: null set");
    }
    rows += d->size();
    if (shape.empty()) shape = d->example_shape();
  }
  data::Dataset pooled(validation_sets.front()->num_classes(),
                       std::move(shape));
  pooled.reserve(rows);
  for (const data::Dataset* d : validation_sets) pooled.append(*d);
  return pooled;
}

}  // namespace collapois::core
