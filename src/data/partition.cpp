#include "data/partition.h"

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace collapois::data {

std::vector<std::size_t> dirichlet_class_counts(stats::Rng& rng, double alpha,
                                                std::size_t num_classes,
                                                std::size_t total) {
  if (num_classes == 0) {
    throw std::invalid_argument("dirichlet_class_counts: num_classes == 0");
  }
  const std::vector<double> p = rng.dirichlet(alpha, num_classes);

  // Largest-remainder rounding so counts sum exactly to `total`.
  std::vector<std::size_t> counts(num_classes, 0);
  std::vector<std::pair<double, std::size_t>> remainders(num_classes);
  std::size_t assigned = 0;
  for (std::size_t c = 0; c < num_classes; ++c) {
    const double exact = p[c] * static_cast<double>(total);
    counts[c] = static_cast<std::size_t>(exact);
    assigned += counts[c];
    remainders[c] = {exact - static_cast<double>(counts[c]), c};
  }
  std::sort(remainders.begin(), remainders.end(),
            [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t i = 0; assigned < total; ++i) {
    counts[remainders[i % num_classes].second] += 1;
    ++assigned;
  }
  return counts;
}

std::vector<Dataset> partition_dirichlet(const Dataset& d,
                                         std::size_t n_clients, double alpha,
                                         stats::Rng& rng) {
  if (n_clients == 0) {
    throw std::invalid_argument("partition_dirichlet: n_clients == 0");
  }
  // Group example indices by label.
  std::vector<std::vector<std::size_t>> by_label(d.num_classes());
  for (std::size_t i = 0; i < d.size(); ++i) {
    by_label[static_cast<std::size_t>(d.label(i))].push_back(i);
  }

  std::vector<Dataset> out(n_clients,
                           Dataset(d.num_classes(), d.example_shape()));
  for (auto& indices : by_label) {
    rng.shuffle(indices);
    const std::vector<double> shares = rng.dirichlet(alpha, n_clients);
    // Deal this class's examples to clients proportionally to shares.
    std::size_t cursor = 0;
    double cumulative = 0.0;
    for (std::size_t c = 0; c < n_clients; ++c) {
      cumulative += shares[c];
      const std::size_t end = (c + 1 == n_clients)
                                  ? indices.size()
                                  : static_cast<std::size_t>(
                                        cumulative *
                                        static_cast<double>(indices.size()));
      for (; cursor < end && cursor < indices.size(); ++cursor) {
        out[c].add_row(d.row(indices[cursor]), d.label(indices[cursor]));
      }
    }
  }
  return out;
}

std::vector<std::vector<double>> FederatedData::client_label_histograms()
    const {
  std::vector<std::vector<double>> out;
  out.reserve(clients.size());
  for (const auto& c : clients) {
    std::vector<double> hist(num_classes, 0.0);
    for (const Dataset* part : {&c.train, &c.test, &c.validation}) {
      const auto h = part->label_histogram();
      for (std::size_t j = 0; j < num_classes; ++j) hist[j] += h[j];
    }
    out.push_back(std::move(hist));
  }
  return out;
}

}  // namespace collapois::data
