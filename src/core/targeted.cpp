#include "core/targeted.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

#include "stats/geometry.h"

namespace collapois::core {

namespace {

double cumulative_cosine(std::span<const double> a,
                         std::span<const double> b) {
  std::vector<double> ca(a.begin(), a.end());
  std::vector<double> cb(b.begin(), b.end());
  for (std::size_t j = 1; j < ca.size(); ++j) {
    ca[j] += ca[j - 1];
    cb[j] += cb[j - 1];
  }
  return stats::cosine_similarity(std::span<const double>(ca),
                                  std::span<const double>(cb));
}

}  // namespace

std::vector<std::size_t> select_high_value_targets(
    const std::vector<std::vector<double>>& client_histograms,
    std::span<const double> reference_histogram, double fraction) {
  if (fraction <= 0.0 || fraction > 1.0) {
    throw std::invalid_argument(
        "select_high_value_targets: fraction must be in (0, 1]");
  }
  if (client_histograms.empty()) return {};
  std::vector<std::size_t> order(client_histograms.size());
  std::iota(order.begin(), order.end(), 0);
  std::vector<double> cs(client_histograms.size());
  for (std::size_t i = 0; i < client_histograms.size(); ++i) {
    if (client_histograms[i].size() != reference_histogram.size()) {
      throw std::invalid_argument(
          "select_high_value_targets: histogram size mismatch");
    }
    cs[i] = cumulative_cosine(client_histograms[i], reference_histogram);
  }
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return cs[a] > cs[b]; });
  std::size_t take = static_cast<std::size_t>(
      fraction * static_cast<double>(order.size()));
  take = std::max<std::size_t>(take, 1);
  order.resize(std::min(take, order.size()));
  return order;
}

data::Dataset reweight_to_distribution(
    const data::Dataset& auxiliary, std::span<const double> target_histogram,
    std::size_t output_size, stats::Rng& rng) {
  if (auxiliary.empty()) {
    throw std::invalid_argument("reweight_to_distribution: empty auxiliary");
  }
  if (target_histogram.size() != auxiliary.num_classes()) {
    throw std::invalid_argument(
        "reweight_to_distribution: histogram size mismatch");
  }
  // Index auxiliary examples by label.
  std::vector<std::vector<std::size_t>> by_label(auxiliary.num_classes());
  for (std::size_t i = 0; i < auxiliary.size(); ++i) {
    by_label[static_cast<std::size_t>(auxiliary.label(i))].push_back(i);
  }
  // Only classes the attacker actually holds can be sampled.
  std::vector<double> weights(target_histogram.begin(),
                              target_histogram.end());
  for (std::size_t c = 0; c < weights.size(); ++c) {
    if (by_label[c].empty()) weights[c] = 0.0;
  }
  const double total = std::accumulate(weights.begin(), weights.end(), 0.0);
  if (total <= 0.0) {
    throw std::invalid_argument(
        "reweight_to_distribution: no overlap between auxiliary labels and "
        "target distribution");
  }

  data::Dataset out(auxiliary.num_classes(), auxiliary.example_shape());
  out.reserve(output_size);
  for (std::size_t i = 0; i < output_size; ++i) {
    const std::size_t cls = rng.categorical(weights);
    const auto& pool = by_label[cls];
    const std::size_t pick =
        pool[static_cast<std::size_t>(rng.uniform_int(pool.size()))];
    out.add_row(auxiliary.row(pick), auxiliary.label(pick));
  }
  return out;
}

SemiReadyClient::SemiReadyClient(std::unique_ptr<CollaPoisClient> attack,
                                 tensor::FlatVec specialized_x,
                                 tensor::FlatVec target_direction,
                                 SemiReadyConfig config)
    : attack_(std::move(attack)),
      x_(std::move(specialized_x)),
      target_direction_(std::move(target_direction)),
      config_(config) {
  if (!attack_) throw std::invalid_argument("SemiReadyClient: null attack");
  if (x_.empty() || target_direction_.empty()) {
    throw std::invalid_argument(
        "SemiReadyClient: need specialized X and target direction");
  }
  if (config_.window == 0 || config_.required_signals == 0) {
    throw std::invalid_argument("SemiReadyClient: degenerate config");
  }
}

void SemiReadyClient::observe(std::span<const float> global) {
  if (activated_) return;
  if (!last_global_.empty() && last_global_.size() == global.size()) {
    // Drift of the global model since the last observation. The cohort's
    // pseudo-gradient points where training on cohort data *came from*,
    // so cohort participation shows up as drift aligned with the negative
    // target direction.
    tensor::FlatVec drift =
        tensor::sub(global, last_global_);
    const double cos = stats::cosine_similarity(
        drift, tensor::scale(target_direction_, -1.0));
    const bool signal = cos > config_.activation_cosine;
    window_.push_back(signal);
    if (window_.size() > config_.window) window_.pop_front();
    signals_ = static_cast<std::size_t>(
        std::count(window_.begin(), window_.end(), true));
    if (signals_ >= config_.required_signals) {
      activated_ = true;
      attack_->set_trojaned_model(x_);
    }
  }
  last_global_.assign(global.begin(), global.end());
}

fl::ClientUpdate SemiReadyClient::compute_update(const fl::RoundContext& ctx) {
  observe(ctx.global);
  return attack_->compute_update(ctx);
}

void SemiReadyClient::distill_round(nn::Model& personal, nn::Model& teacher) {
  observe(personal.get_parameters());
  attack_->distill_round(personal, teacher);
}

}  // namespace collapois::core
