#include "defense/inference_detect.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "nn/eval.h"
#include "nn/loss.h"
#include "stats/summary.h"

namespace collapois::defense {

namespace {

double prediction_entropy(std::span<const float> probs) {
  double h = 0.0;
  for (float p : probs) {
    if (p > 1e-12f) h -= static_cast<double>(p) * std::log(p);
  }
  return h;
}

}  // namespace

// ------------------------------------------------------------------ STRIP

double strip_entropy(nn::Model& model, const tensor::Tensor& x,
                     const data::Dataset& overlay_pool,
                     const StripConfig& config, stats::Rng& rng) {
  if (overlay_pool.empty()) {
    throw std::invalid_argument("strip_entropy: empty overlay pool");
  }
  double total = 0.0;
  for (std::size_t k = 0; k < config.n_overlays; ++k) {
    const auto overlay = overlay_pool.row(
        static_cast<std::size_t>(rng.uniform_int(overlay_pool.size())));
    if (overlay.size() != x.size()) {
      throw std::invalid_argument("strip_entropy: shape mismatch");
    }
    // Blend and wrap as a batch of one.
    std::vector<std::size_t> shape;
    shape.push_back(1);
    for (std::size_t d : x.shape()) shape.push_back(d);
    tensor::Tensor blended(shape);
    for (std::size_t i = 0; i < x.size(); ++i) {
      blended[i] = static_cast<float>((1.0 - config.overlay_weight) * x[i] +
                                      config.overlay_weight * overlay[i]);
    }
    const tensor::Tensor probs = nn::softmax(model.forward(blended));
    total += prediction_entropy(probs.data());
  }
  return total / static_cast<double>(config.n_overlays);
}

StripReport strip_evaluate(nn::Model& model, const data::Dataset& clean,
                           const data::Dataset& trojaned,
                           const data::Dataset& overlay_pool,
                           const StripConfig& config, stats::Rng& rng) {
  if (clean.empty() || trojaned.empty()) {
    throw std::invalid_argument("strip_evaluate: empty probe set");
  }
  std::vector<double> clean_h;
  clean_h.reserve(clean.size());
  for (std::size_t i = 0; i < clean.size(); ++i) {
    clean_h.push_back(
        strip_entropy(model, clean.example(i).x, overlay_pool, config, rng));
  }
  std::vector<double> trojan_h;
  trojan_h.reserve(trojaned.size());
  for (std::size_t i = 0; i < trojaned.size(); ++i) {
    trojan_h.push_back(strip_entropy(model, trojaned.example(i).x,
                                     overlay_pool, config, rng));
  }
  StripReport r;
  r.clean_entropy_mean = stats::mean(clean_h);
  r.trojan_entropy_mean = stats::mean(trojan_h);
  const double threshold = stats::quantile(clean_h, 0.01);
  std::size_t detected = 0;
  for (double h : trojan_h) {
    if (h < threshold) ++detected;
  }
  r.detection_rate =
      static_cast<double>(detected) / static_cast<double>(trojan_h.size());
  return r;
}

// ----------------------------------------------------------- Fine-Pruning

namespace {

// Index of the last hidden Dense layer (the Dense feeding the classifier
// head) and the classifier Dense itself.
std::size_t find_penultimate_dense(nn::Model& model) {
  std::ptrdiff_t last = -1;
  std::ptrdiff_t penultimate = -1;
  for (std::size_t i = 0; i < model.num_layers(); ++i) {
    if (dynamic_cast<nn::Dense*>(&model.layer(i)) != nullptr) {
      penultimate = last;
      last = static_cast<std::ptrdiff_t>(i);
    }
  }
  if (penultimate < 0) {
    throw std::invalid_argument(
        "fine_prune: model needs at least two Dense layers");
  }
  return static_cast<std::size_t>(penultimate);
}

// Mean |activation| of each unit of layer `upto` (inclusive of the ReLU
// that follows it, if any) over the clean set.
std::vector<double> unit_activations(nn::Model& model,
                                     const data::Dataset& clean,
                                     std::size_t upto) {
  auto* dense = dynamic_cast<nn::Dense*>(&model.layer(upto));
  std::vector<double> act(dense->out_features(), 0.0);
  std::size_t count = 0;
  std::vector<std::size_t> idx(1);
  for (std::size_t s = 0; s < clean.size(); ++s) {
    idx[0] = s;
    const auto batch = data::make_batch(clean, idx);
    tensor::Tensor h = batch.x;
    for (std::size_t l = 0; l <= upto; ++l) {
      h = model.layer(l).forward(std::move(h));
    }
    // Apply the following ReLU if present (post-activation units).
    if (upto + 1 < model.num_layers() &&
        dynamic_cast<nn::Relu*>(&model.layer(upto + 1)) != nullptr) {
      h = model.layer(upto + 1).forward(std::move(h));
    }
    for (std::size_t u = 0; u < act.size(); ++u) {
      act[u] += std::fabs(h[u]);
    }
    ++count;
  }
  for (auto& a : act) a /= static_cast<double>(std::max<std::size_t>(count, 1));
  return act;
}

}  // namespace

nn::Model fine_prune(const nn::Model& model, const data::Dataset& clean,
                     std::size_t n_prune) {
  if (clean.empty()) throw std::invalid_argument("fine_prune: empty clean set");
  nn::Model pruned = model;
  const std::size_t target = find_penultimate_dense(pruned);
  auto* dense = dynamic_cast<nn::Dense*>(&pruned.layer(target));
  const auto act = unit_activations(pruned, clean, target);

  std::vector<std::size_t> order(act.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return act[a] < act[b]; });

  auto params = dense->parameters();
  const std::size_t in = dense->in_features();
  const std::size_t out = dense->out_features();
  const std::size_t n = std::min(n_prune, out);
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t u = order[k];
    for (std::size_t j = 0; j < in; ++j) params[u * in + j] = 0.0f;
    params[out * in + u] = 0.0f;  // bias
  }
  return pruned;
}

std::vector<PruneResult> fine_prune_sweep(
    const nn::Model& model, const data::Dataset& clean,
    const data::Dataset& clean_eval, const data::Dataset& trojan_eval,
    const std::vector<std::size_t>& prune_levels) {
  std::vector<PruneResult> out;
  out.reserve(prune_levels.size());
  for (std::size_t level : prune_levels) {
    nn::Model pruned = fine_prune(model, clean, level);
    PruneResult r;
    r.pruned_units = level;
    r.clean_accuracy = nn::accuracy(pruned, clean_eval);
    r.attack_sr = nn::accuracy(pruned, trojan_eval);
    out.push_back(r);
  }
  return out;
}

// --------------------------------------------------------- Neural Cleanse

namespace {

double sigmoid(double z) { return 1.0 / (1.0 + std::exp(-z)); }

}  // namespace

CleanseReport neural_cleanse(nn::Model model, const data::Dataset& clean,
                             const CleanseConfig& config, stats::Rng& rng) {
  if (clean.empty()) {
    throw std::invalid_argument("neural_cleanse: empty clean set");
  }
  const std::size_t dim = clean.row_size();
  const std::size_t classes = clean.num_classes();

  CleanseReport report;
  report.mask_norms.resize(classes, 0.0);

  for (std::size_t target = 0; target < classes; ++target) {
    // Raw (pre-sigmoid) mask and pattern parameters.
    std::vector<double> raw_m(dim, -3.0);  // sigmoid(-3) ~ 0.047: start small
    std::vector<double> raw_p(dim, 0.0);

    for (std::size_t step = 0; step < config.steps; ++step) {
      // Mini-batch of clean inputs.
      const std::size_t bsz = std::min(config.batch, clean.size());
      std::vector<std::size_t> idx(bsz);
      for (auto& i : idx) {
        i = static_cast<std::size_t>(rng.uniform_int(clean.size()));
      }
      const auto batch = data::make_batch(clean, idx);

      // Apply x' = (1 - m) x + m p.
      tensor::Tensor perturbed = batch.x;
      std::vector<double> m(dim);
      std::vector<double> p(dim);
      for (std::size_t i = 0; i < dim; ++i) {
        m[i] = sigmoid(raw_m[i]);
        p[i] = sigmoid(raw_p[i]);
      }
      for (std::size_t b = 0; b < bsz; ++b) {
        for (std::size_t i = 0; i < dim; ++i) {
          const std::size_t k = b * dim + i;
          perturbed[k] = static_cast<float>((1.0 - m[i]) * perturbed[k] +
                                            m[i] * p[i]);
        }
      }

      const std::vector<int> labels(bsz, static_cast<int>(target));
      model.zero_grad();
      const tensor::Tensor logits = model.forward(perturbed);
      const auto loss = nn::softmax_cross_entropy(logits, labels);
      const tensor::Tensor grad_in = model.backward(loss.grad_logits);

      // Chain to mask/pattern: dL/dm_i = sum_b g_bi (p_i - x_bi),
      // dL/dp_i = sum_b g_bi m_i; plus the L1 mask penalty.
      for (std::size_t i = 0; i < dim; ++i) {
        double gm = config.mask_l1_weight;  // d||m||_1/dm = 1 (m >= 0)
        double gp = 0.0;
        for (std::size_t b = 0; b < bsz; ++b) {
          const std::size_t k = b * dim + i;
          const double g = grad_in[k];
          gm += g * (p[i] - batch.x[k]);
          gp += g * m[i];
        }
        raw_m[i] -= config.lr * gm * m[i] * (1.0 - m[i]);
        raw_p[i] -= config.lr * gp * p[i] * (1.0 - p[i]);
      }
    }

    double l1 = 0.0;
    for (double v : raw_m) l1 += sigmoid(v);
    report.mask_norms[target] = l1;
  }

  // MAD anomaly index of the smallest mask.
  std::vector<double> norms = report.mask_norms;
  const double med = stats::median(norms);
  std::vector<double> dev(norms.size());
  for (std::size_t i = 0; i < norms.size(); ++i) {
    dev[i] = std::fabs(norms[i] - med);
  }
  const double mad = std::max(stats::median(dev), 1e-9);
  const auto min_it = std::min_element(norms.begin(), norms.end());
  report.flagged_class = static_cast<int>(min_it - norms.begin());
  report.anomaly_index = (med - *min_it) / (1.4826 * mad);
  return report;
}

}  // namespace collapois::defense
