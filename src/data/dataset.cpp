#include "data/dataset.h"

#include <algorithm>
#include <cstring>
#include <functional>
#include <numeric>
#include <stdexcept>

namespace collapois::data {

Dataset::Dataset(std::size_t num_classes,
                 std::vector<std::size_t> example_shape)
    : num_classes_(num_classes) {
  if (!example_shape.empty()) fix_shape(example_shape);
}

void Dataset::fix_shape(const std::vector<std::size_t>& shape) {
  if (!shape_.empty()) {
    if (shape != shape_) {
      throw std::invalid_argument("Dataset: example shape mismatch");
    }
    return;
  }
  const std::size_t volume =
      std::accumulate(shape.begin(), shape.end(), std::size_t{1},
                      std::multiplies<>());
  if (shape.empty() || volume == 0) {
    throw std::invalid_argument("Dataset: empty example shape");
  }
  shape_ = shape;
  row_size_ = volume;
}

std::span<const float> Dataset::row(std::size_t i) const {
  if (i >= size()) throw std::out_of_range("Dataset::row: index out of range");
  return {features_.data() + i * row_size_, row_size_};
}

Example Dataset::example(std::size_t i) const {
  const auto r = row(i);
  return {Tensor(shape_, std::vector<float>(r.begin(), r.end())), labels_[i]};
}

void Dataset::add(const Example& e) {
  fix_shape(e.x.shape());
  add_row(e.x.data(), e.label);
}

void Dataset::add_row(std::span<const float> x, int label) {
  if (x.size() != row_size_) {
    throw std::invalid_argument("Dataset::add_row: row size mismatch");
  }
  std::copy(x.begin(), x.end(), emplace_row(label).begin());
}

std::span<float> Dataset::emplace_row(int label) {
  if (shape_.empty()) {
    throw std::invalid_argument("Dataset::emplace_row: example shape not set");
  }
  features_.resize(features_.size() + row_size_);
  labels_.push_back(label);
  return {features_.data() + features_.size() - row_size_, row_size_};
}

void Dataset::reserve(std::size_t n) {
  features_.reserve(n * row_size_);
  labels_.reserve(n);
}

void Dataset::append(const Dataset& other) {
  if (num_classes_ == 0) num_classes_ = other.num_classes_;
  if (other.num_classes_ != num_classes_) {
    throw std::invalid_argument("Dataset::append: class count mismatch");
  }
  if (other.empty()) return;
  fix_shape(other.shape_);
  features_.insert(features_.end(), other.features_.begin(),
                   other.features_.end());
  labels_.insert(labels_.end(), other.labels_.begin(), other.labels_.end());
}

Dataset Dataset::subset(std::span<const std::size_t> indices) const {
  Dataset out(num_classes_, shape_);
  out.reserve(indices.size());
  for (std::size_t i : indices) out.add_row(row(i), labels_[i]);
  return out;
}

std::vector<double> Dataset::label_histogram() const {
  std::vector<double> hist(num_classes_, 0.0);
  for (int label : labels_) {
    if (label < 0 || static_cast<std::size_t>(label) >= num_classes_) {
      throw std::logic_error("Dataset: label out of range");
    }
    hist[static_cast<std::size_t>(label)] += 1.0;
  }
  return hist;
}

std::vector<double> Dataset::cumulative_label_distribution() const {
  std::vector<double> cl = label_histogram();
  for (std::size_t j = 1; j < cl.size(); ++j) cl[j] += cl[j - 1];
  return cl;
}

ClientSplit split_client_data(const Dataset& d, stats::Rng& rng,
                              double train_frac, double test_frac) {
  if (train_frac <= 0.0 || test_frac < 0.0 || train_frac + test_frac > 1.0) {
    throw std::invalid_argument("split_client_data: bad fractions");
  }
  std::vector<std::size_t> idx(d.size());
  for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = i;
  rng.shuffle(idx);

  const std::size_t n = d.size();
  std::size_t n_train = static_cast<std::size_t>(
      static_cast<double>(n) * train_frac);
  std::size_t n_test =
      static_cast<std::size_t>(static_cast<double>(n) * test_frac);
  if (n > 0 && n_train == 0) n_train = 1;
  if (n_train + n_test > n) n_test = n - n_train;

  ClientSplit s;
  s.train = d.subset(std::span<const std::size_t>(idx.data(), n_train));
  s.test = d.subset(
      std::span<const std::size_t>(idx.data() + n_train, n_test));
  s.validation = d.subset(std::span<const std::size_t>(
      idx.data() + n_train + n_test, n - n_train - n_test));
  return s;
}

Batch make_batch(const Dataset& d, std::span<const std::size_t> indices) {
  if (indices.empty()) throw std::invalid_argument("make_batch: empty batch");
  std::vector<std::size_t> shape;
  shape.reserve(d.example_shape().size() + 1);
  shape.push_back(indices.size());
  shape.insert(shape.end(), d.example_shape().begin(),
               d.example_shape().end());

  Batch batch;
  batch.x = Tensor(shape);
  batch.labels.resize(indices.size());
  const std::size_t stride = d.row_size();
  float* out = batch.x.data().data();
  for (std::size_t i = 0; i < indices.size(); ++i) {
    const auto r = d.row(indices[i]);
    std::memcpy(out + i * stride, r.data(), stride * sizeof(float));
    batch.labels[i] = d.label(indices[i]);
  }
  return batch;
}

}  // namespace collapois::data
