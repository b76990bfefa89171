#include "fl/metafed.h"

#include <algorithm>
#include <stdexcept>

namespace collapois::fl {

MetaFedAlgorithm::MetaFedAlgorithm(std::vector<std::unique_ptr<Client>> clients,
                                   const nn::Model& prototype,
                                   MetaFedConfig config, stats::Rng rng)
    : clients_(std::move(clients)), config_(config), rng_(std::move(rng)) {
  if (clients_.empty()) {
    throw std::invalid_argument("MetaFedAlgorithm: no clients");
  }
  if (config_.sample_prob <= 0.0 || config_.sample_prob > 1.0) {
    throw std::invalid_argument("MetaFedAlgorithm: bad sample_prob");
  }
  personal_.reserve(clients_.size());
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (!clients_[i]) {
      throw std::invalid_argument("MetaFedAlgorithm: null client");
    }
    personal_.push_back(prototype);  // shared architecture + init
  }
}

RoundTelemetry MetaFedAlgorithm::run_round() {
  RoundTelemetry t;
  t.round = round_;

  std::vector<std::size_t> visited;
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    if (rng_.bernoulli(config_.sample_prob)) visited.push_back(i);
  }
  if (visited.empty()) {
    visited.push_back(
        static_cast<std::size_t>(rng_.uniform_int(clients_.size())));
  }
  // Every visited client distills and is accepted: the cohort is exactly
  // the visit list, so cohort == accepted holds like on the server path.
  t.cohort_size = visited.size();
  t.n_dispatched = visited.size();
  // Ring order: ascending client index with wraparound; the predecessor of
  // the first visited client is the last one.
  for (std::size_t k = 0; k < visited.size(); ++k) {
    const std::size_t i = visited[k];
    const std::size_t teacher_idx =
        visited[(k + visited.size() - 1) % visited.size()];
    const tensor::FlatVec before = personal_[i].get_parameters();
    if (teacher_idx == i) {
      // Self-distillation degenerates to aliasing (the forward caches of
      // student and teacher would collide); use a snapshot as teacher.
      nn::Model snapshot = personal_[i];
      clients_[i]->distill_round(personal_[i], snapshot);
    } else {
      clients_[i]->distill_round(personal_[i], personal_[teacher_idx]);
    }
    if (config_.clip > 0.0 || config_.noise_std > 0.0) {
      // Defense analogue (see MetaFedConfig): bound and perturb the
      // knowledge transferred this round.
      tensor::FlatVec change =
          tensor::sub(personal_[i].get_parameters(), before);
      if (config_.clip > 0.0) tensor::clip_l2_inplace(change, config_.clip);
      if (config_.noise_std > 0.0) {
        for (auto& v : change) {
          v = static_cast<float>(v + rng_.normal(0.0, config_.noise_std));
        }
      }
      tensor::FlatVec restored = before;
      tensor::axpy_inplace(restored, 1.0, change);
      personal_[i].set_parameters(restored);
    }
    t.sampled_ids.push_back(clients_[i]->id());
    t.compromised.push_back(clients_[i]->is_compromised());
  }
  ++round_;
  return t;
}

tensor::FlatVec MetaFedAlgorithm::global_params() const {
  std::vector<tensor::FlatVec> all;
  all.reserve(personal_.size());
  for (const auto& m : personal_) all.push_back(m.get_parameters());
  return tensor::mean_of(all);
}

tensor::FlatVec MetaFedAlgorithm::client_eval_params(
    std::size_t client_index) {
  return personal_.at(client_index).get_parameters();
}

void MetaFedAlgorithm::save_state(StateWriter& w) const {
  w.write_size(round_);
  w.write_rng(rng_);
  w.write_size(clients_.size());
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    w.write_floats(personal_[i].get_parameters());
    clients_[i]->save_state(w);
  }
}

void MetaFedAlgorithm::load_state(StateReader& r) {
  round_ = r.read_size();
  r.read_rng(rng_);
  const std::size_t n = r.read_size();
  if (n != clients_.size()) {
    throw std::runtime_error(
        "MetaFedAlgorithm::load_state: client count mismatch");
  }
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    personal_[i].set_parameters(r.read_floats());
    clients_[i]->load_state(r);
  }
}

}  // namespace collapois::fl
