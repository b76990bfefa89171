// Dataset containers and label-distribution utilities.
//
// A Dataset is a list of labelled examples of one shape with a fixed class
// count, stored as one row-major float matrix (one row per example) plus a
// label vector. Client-side splits (70/15/15 train/test/val, Section V) and
// the cumulative label distribution of Eq. 9 live here.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "stats/rng.h"
#include "tensor/tensor.h"

namespace collapois::data {

using tensor::Tensor;

// One example as a standalone value: what generators sample and what
// Dataset::example() returns.
struct Example {
  Tensor x;
  int label = 0;
};

class Dataset {
 public:
  Dataset() = default;
  explicit Dataset(std::size_t num_classes) : num_classes_(num_classes) {}
  // Empty dataset whose rows have `example_shape` (an empty shape leaves it
  // to the first add or append).
  Dataset(std::size_t num_classes, std::vector<std::size_t> example_shape);

  std::size_t size() const { return labels_.size(); }
  bool empty() const { return labels_.empty(); }
  std::size_t num_classes() const { return num_classes_; }

  // Shape of every example; empty until the constructor or the first add
  // fixes it.
  const std::vector<std::size_t>& example_shape() const { return shape_; }
  // Floats per example.
  std::size_t row_size() const { return row_size_; }

  // Checked access to example i: its features and its label. A row view
  // (and emplace_row's) is valid until the next append.
  std::span<const float> row(std::size_t i) const;
  int label(std::size_t i) const { return labels_.at(i); }
  // Example i copied into a standalone Tensor of example_shape().
  Example example(std::size_t i) const;

  // Append one example. A row whose shape (add) or size (add_row) differs
  // from the dataset's throws std::invalid_argument.
  void add(const Example& e);
  void add_row(std::span<const float> x, int label);
  // Append a zero row labelled `label` and return it for the caller to
  // fill (the example shape must be fixed).
  std::span<float> emplace_row(int label);
  // Room for n rows in total, so that filling them allocates once.
  void reserve(std::size_t n);

  // Append every example of `other` (class counts and shapes must agree).
  void append(const Dataset& other);

  // Dataset restricted to the given indices.
  Dataset subset(std::span<const std::size_t> indices) const;

  // Count of examples per label, length num_classes().
  std::vector<double> label_histogram() const;

  // Cumulative label distribution P_CL (Eq. 9): prefix sums of the label
  // histogram, i.e. N_j = sum_{q <= j} N_q.
  std::vector<double> cumulative_label_distribution() const;

 private:
  void fix_shape(const std::vector<std::size_t>& shape);

  std::size_t num_classes_ = 0;
  std::vector<std::size_t> shape_;
  std::size_t row_size_ = 0;
  std::vector<float> features_;  // size() x row_size_, row-major
  std::vector<int> labels_;
};

// 70/15/15 train/test/validation split of one client's local data
// (shuffled with the provided rng). Small datasets degrade gracefully:
// every example lands in exactly one split and train is never empty when
// the input is non-empty.
struct ClientSplit {
  Dataset train;
  Dataset test;
  Dataset validation;
};

ClientSplit split_client_data(const Dataset& d, stats::Rng& rng,
                              double train_frac = 0.70,
                              double test_frac = 0.15);

// Assemble a mini-batch: copies the rows at `indices` into one tensor whose
// first dimension is the batch, plus the label vector.
struct Batch {
  Tensor x;
  std::vector<int> labels;
};

Batch make_batch(const Dataset& d, std::span<const std::size_t> indices);

}  // namespace collapois::data
