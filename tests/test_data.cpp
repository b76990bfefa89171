// Tests for the data substrate: synthetic generators, splits, label
// statistics, and the Dirichlet non-IID partitioner (the knob the whole
// paper turns).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>

#include "agg/lazy_federation.h"
#include "data/partition.h"
#include "data/synthetic_image.h"
#include "data/synthetic_text.h"
#include "stats/summary.h"
#include "trojan/embedding_trigger.h"
#include "trojan/poison.h"
#include "trojan/warp_trigger.h"

namespace collapois::data {
namespace {

// Dataset of `labels.size()` rows of `row` floats; row i holds i * 10 + k.
Dataset numbered(std::size_t num_classes, std::vector<int> labels,
                 std::size_t row = 1) {
  Dataset d(num_classes);
  for (std::size_t i = 0; i < labels.size(); ++i) {
    Example e{Tensor({row}), labels[i]};
    for (std::size_t k = 0; k < row; ++k) {
      e.x[k] = static_cast<float>(i * 10 + k);
    }
    d.add(e);
  }
  return d;
}

TEST(Dataset, AddSubsetHistogram) {
  Dataset d = numbered(3, {0, 1, 1, 2, 2, 2}, 2);
  EXPECT_EQ(d.example_shape(), (std::vector<std::size_t>{2}));
  EXPECT_EQ(d.row_size(), 2u);
  const auto hist = d.label_histogram();
  EXPECT_EQ(hist, (std::vector<double>{1, 2, 3}));
  const std::vector<std::size_t> idx = {0, 3};
  const Dataset sub = d.subset(idx);
  EXPECT_EQ(sub.size(), 2u);
  EXPECT_EQ(sub.example_shape(), d.example_shape());
  for (std::size_t i = 0; i < idx.size(); ++i) {
    EXPECT_EQ(sub.label(i), d.label(idx[i]));
    EXPECT_TRUE(std::ranges::equal(sub.row(i), d.row(idx[i])));
  }
  const Example e = d.example(3);
  EXPECT_EQ(e.label, 2);
  EXPECT_EQ(e.x.storage(), (std::vector<float>{30, 31}));
  EXPECT_THROW(d.row(6), std::out_of_range);

  // The first row fixes the example shape; a row of another shape or size
  // throws and leaves the dataset as it was.
  EXPECT_THROW(d.add(Example{Tensor({3}), 0}), std::invalid_argument);
  EXPECT_THROW(d.add(Example{Tensor({1, 2}), 0}), std::invalid_argument);
  EXPECT_THROW(d.add_row(std::vector<float>{1, 2, 3}, 0),
               std::invalid_argument);
  EXPECT_THROW(Dataset(3).add(Example{}), std::invalid_argument);
  EXPECT_THROW(Dataset(3).emplace_row(0), std::invalid_argument);
  Dataset shaped(3, {1, 2});
  EXPECT_THROW(shaped.add(Example{Tensor({2}), 0}), std::invalid_argument);
  shaped.add(Example{Tensor({1, 2}), 1});
  EXPECT_EQ(shaped.size(), 1u);
  EXPECT_EQ(d.size(), 6u);
}

TEST(Dataset, CumulativeLabelDistribution) {
  Dataset d(4);
  for (int label : {0, 1, 1, 3}) {
    Example e;
    e.x = Tensor({1});
    e.label = label;
    d.add(std::move(e));
  }
  EXPECT_EQ(d.cumulative_label_distribution(),
            (std::vector<double>{1, 3, 3, 4}));
}

TEST(Dataset, AppendChecksClassCount) {
  Dataset a(2);
  Dataset b(3);
  EXPECT_THROW(a.append(b), std::invalid_argument);
  const Dataset c = numbered(2, {1, 0, 1}, 2);
  a.append(c);
  a.append(Dataset(2));
  a.append(c);
  ASSERT_EQ(a.size(), 6u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a.label(i), c.label(i % 3));
    EXPECT_TRUE(std::ranges::equal(a.row(i), c.row(i % 3)));
  }
  EXPECT_THROW(a.append(numbered(2, {0}, 3)), std::invalid_argument);
  EXPECT_THROW(a.append(numbered(3, {0}, 2)), std::invalid_argument);
  EXPECT_EQ(a.size(), 6u);
}

TEST(Split, FractionsRespected) {
  stats::Rng rng(1);
  std::vector<int> labels(100);
  for (int i = 0; i < 100; ++i) labels[static_cast<std::size_t>(i)] = i % 2;
  const Dataset d = numbered(2, labels, 3);
  const ClientSplit s = split_client_data(d, rng);
  EXPECT_EQ(s.train.size(), 70u);
  EXPECT_EQ(s.test.size(), 15u);
  EXPECT_EQ(s.validation.size(), 15u);
  EXPECT_EQ(s.train.size() + s.test.size() + s.validation.size(), d.size());
  // Every row lands in exactly one split, whole and with its own label.
  std::vector<int> seen(d.size(), 0);
  for (const Dataset* part : {&s.train, &s.test, &s.validation}) {
    for (std::size_t i = 0; i < part->size(); ++i) {
      const auto src = static_cast<std::size_t>(part->row(i)[0]) / 10;
      ASSERT_LT(src, d.size());
      ++seen[src];
      EXPECT_TRUE(std::ranges::equal(part->row(i), d.row(src)));
      EXPECT_EQ(part->label(i), d.label(src));
    }
  }
  EXPECT_EQ(seen, std::vector<int>(d.size(), 1));
}

TEST(Split, TinyDatasetsKeepTrainNonEmpty) {
  stats::Rng rng(2);
  Dataset d(2);
  Example e;
  e.x = Tensor({1});
  d.add(e);
  const ClientSplit s = split_client_data(d, rng);
  EXPECT_EQ(s.train.size(), 1u);
  EXPECT_EQ(s.test.size() + s.validation.size(), 0u);
}

TEST(Split, RejectsBadFractions) {
  stats::Rng rng(3);
  Dataset d(2);
  EXPECT_THROW(split_client_data(d, rng, 0.8, 0.3), std::invalid_argument);
  EXPECT_THROW(split_client_data(d, rng, 0.0, 0.1), std::invalid_argument);
}

TEST(Batch, StacksExamples) {
  Dataset d(2);
  for (int i = 0; i < 3; ++i) {
    Example e;
    e.x = Tensor({2}, {static_cast<float>(i), static_cast<float>(-i)});
    e.label = i % 2;
    d.add(std::move(e));
  }
  const std::vector<std::size_t> idx = {2, 0};
  const Batch b = make_batch(d, idx);
  EXPECT_EQ(b.x.shape(), (std::vector<std::size_t>{2, 2}));
  EXPECT_EQ(b.x[0], 2.0f);
  EXPECT_EQ(b.labels, (std::vector<int>{0, 0}));
  EXPECT_THROW(make_batch(d, std::vector<std::size_t>{}),
               std::invalid_argument);
  EXPECT_THROW(make_batch(d, std::vector<std::size_t>{3}), std::out_of_range);

  // Shuffled indices, with repeats, over image-shaped rows: each batch row
  // is the source row byte for byte.
  stats::Rng rng(9);
  SyntheticImageGenerator gen({}, 10);
  const Dataset images = gen.generate(std::vector<std::size_t>(10, 3), rng);
  std::vector<std::size_t> order(images.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  rng.shuffle(order);
  order.push_back(order.front());
  const Batch ib = make_batch(images, order);
  std::vector<std::size_t> shape = {order.size()};
  shape.insert(shape.end(), images.example_shape().begin(),
               images.example_shape().end());
  EXPECT_EQ(ib.x.shape(), shape);
  const std::size_t row = images.row_size();
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(std::memcmp(ib.x.data().data() + i * row,
                          images.row(order[i]).data(), row * sizeof(float)),
              0);
    EXPECT_EQ(ib.labels[i], images.label(order[i]));
  }
}

TEST(ImageGenerator, ShapesAndRanges) {
  SyntheticImageConfig cfg;
  SyntheticImageGenerator gen(cfg, 99);
  stats::Rng rng(1);
  const Example e = gen.sample(3, rng);
  EXPECT_EQ(e.label, 3);
  EXPECT_EQ(e.x.shape(),
            (std::vector<std::size_t>{1, cfg.height, cfg.width}));
  for (float v : e.x.data()) {
    EXPECT_GE(v, 0.0f);
    EXPECT_LE(v, 1.0f);
  }
  EXPECT_THROW(gen.sample(-1, rng), std::invalid_argument);
  EXPECT_THROW(gen.sample(10, rng), std::invalid_argument);
}

TEST(ImageGenerator, SameSeedSamePrototypes) {
  SyntheticImageGenerator a({}, 5);
  SyntheticImageGenerator b({}, 5);
  SyntheticImageGenerator c({}, 6);
  EXPECT_EQ(a.prototype(0).storage(), b.prototype(0).storage());
  EXPECT_NE(a.prototype(0).storage(), c.prototype(0).storage());
}

TEST(ImageGenerator, ClassesAreSeparable) {
  // Prototypes of different classes must differ substantially — otherwise
  // the task is unlearnable and every experiment downstream is noise.
  SyntheticImageGenerator gen({}, 7);
  double min_dist = 1e9;
  for (std::size_t a = 0; a < 10; ++a) {
    for (std::size_t b = a + 1; b < 10; ++b) {
      double d = 0.0;
      const auto& pa = gen.prototype(a);
      const auto& pb = gen.prototype(b);
      for (std::size_t i = 0; i < pa.size(); ++i) {
        d += (pa[i] - pb[i]) * (pa[i] - pb[i]);
      }
      min_dist = std::min(min_dist, std::sqrt(d));
    }
  }
  EXPECT_GT(min_dist, 1.0);
}

TEST(ImageGenerator, GenerateCountsRespected) {
  SyntheticImageGenerator gen({}, 8);
  stats::Rng rng(2);
  std::vector<std::size_t> counts(10, 0);
  counts[2] = 5;
  counts[7] = 3;
  const Dataset d = gen.generate(counts, rng);
  EXPECT_EQ(d.size(), 8u);
  const auto hist = d.label_histogram();
  EXPECT_EQ(hist[2], 5.0);
  EXPECT_EQ(hist[7], 3.0);
}

TEST(TextGenerator, ShapesAndDeterminism) {
  SyntheticTextConfig cfg;
  SyntheticTextGenerator a(cfg, 11);
  SyntheticTextGenerator b(cfg, 11);
  EXPECT_EQ(a.class_mean(0).storage(), b.class_mean(0).storage());
  stats::Rng rng(1);
  const Example e = a.sample(1, rng);
  EXPECT_EQ(e.x.shape(), (std::vector<std::size_t>{cfg.embedding_dim}));
}

TEST(TextGenerator, ClassMeansOnSeparationSphere) {
  SyntheticTextConfig cfg;
  SyntheticTextGenerator gen(cfg, 12);
  for (std::size_t c = 0; c < cfg.num_classes; ++c) {
    double norm2 = 0.0;
    for (float v : gen.class_mean(c).data()) {
      norm2 += static_cast<double>(v) * v;
    }
    EXPECT_NEAR(std::sqrt(norm2), cfg.class_separation, 1e-4);
  }
}

TEST(DirichletCounts, SumExactlyToTotal) {
  stats::Rng rng(3);
  for (double alpha : {0.01, 0.1, 1.0, 100.0}) {
    for (std::size_t total : {1u, 7u, 80u, 1000u}) {
      const auto counts = dirichlet_class_counts(rng, alpha, 10, total);
      EXPECT_EQ(std::accumulate(counts.begin(), counts.end(), 0u), total)
          << "alpha=" << alpha << " total=" << total;
    }
  }
}

// The paper's central data property: small alpha concentrates each
// client's data on few classes; large alpha spreads it evenly.
class DirichletSkewSweep : public ::testing::TestWithParam<double> {};

TEST_P(DirichletSkewSweep, EffectiveClassesMatchAlphaRegime) {
  const double alpha = GetParam();
  stats::Rng rng(4);
  double mean_nonzero = 0.0;
  const int trials = 100;
  for (int t = 0; t < trials; ++t) {
    const auto counts = dirichlet_class_counts(rng, alpha, 10, 100);
    int nonzero = 0;
    for (std::size_t c : counts) nonzero += (c > 0) ? 1 : 0;
    mean_nonzero += nonzero;
  }
  mean_nonzero /= trials;
  if (alpha <= 0.05) {
    EXPECT_LT(mean_nonzero, 3.5);
  } else if (alpha >= 50.0) {
    EXPECT_GT(mean_nonzero, 9.0);
  }
}

INSTANTIATE_TEST_SUITE_P(Alphas, DirichletSkewSweep,
                         ::testing::Values(0.01, 0.05, 1.0, 50.0, 100.0));

TEST(PartitionDirichlet, EveryExampleAssignedOnce) {
  stats::Rng rng(5);
  SyntheticTextGenerator gen({}, 13);
  std::vector<std::size_t> counts = {200, 200};
  const Dataset d = gen.generate(counts, rng);
  const auto parts = partition_dirichlet(d, 8, 0.5, rng);
  ASSERT_EQ(parts.size(), 8u);
  std::size_t total = 0;
  for (const auto& p : parts) total += p.size();
  EXPECT_EQ(total, d.size());
}

TEST(PartitionDirichlet, LargeAlphaBalances) {
  stats::Rng rng(6);
  SyntheticTextGenerator gen({}, 14);
  std::vector<std::size_t> counts = {400, 400};
  const Dataset d = gen.generate(counts, rng);
  const auto parts = partition_dirichlet(d, 4, 1000.0, rng);
  for (const auto& p : parts) {
    // Each client close to 200 examples, each class close to balanced.
    EXPECT_NEAR(static_cast<double>(p.size()), 200.0, 40.0);
  }
}

TEST(Federation, BuildsSplitsAndHistograms) {
  stats::Rng rng(7);
  SyntheticTextGenerator gen({}, 15);
  const FederatedData fed = build_federation(gen, 12, 40, 0.5, rng);
  EXPECT_EQ(fed.num_clients(), 12u);
  EXPECT_EQ(fed.num_classes, 2u);
  const auto hists = fed.client_label_histograms();
  ASSERT_EQ(hists.size(), 12u);
  for (const auto& h : hists) {
    EXPECT_NEAR(std::accumulate(h.begin(), h.end(), 0.0), 40.0, 1e-9);
  }
  for (const auto& c : fed.clients) {
    EXPECT_FALSE(c.train.empty());
  }
}

TEST(Federation, AlphaControlsClientSkew) {
  stats::Rng rng(8);
  SyntheticImageGenerator gen({}, 16);
  const FederatedData skewed = build_federation(gen, 20, 60, 0.01, rng);
  const FederatedData even = build_federation(gen, 20, 60, 100.0, rng);
  auto mean_max_share = [](const FederatedData& fed) {
    double total = 0.0;
    for (const auto& h : fed.client_label_histograms()) {
      const double mx = *std::max_element(h.begin(), h.end());
      const double sum = std::accumulate(h.begin(), h.end(), 0.0);
      total += mx / sum;
    }
    return total / static_cast<double>(fed.num_clients());
  };
  EXPECT_GT(mean_max_share(skewed), 0.8);
  EXPECT_LT(mean_max_share(even), 0.3);
}

// --- Golden digests -------------------------------------------------------
// FNV-1a over what the generators, splits and poisoning steps produce: every
// row's float bytes, every label and the batch shape, in row order. The
// digest reads a dataset only through size() and make_batch(), so it pins
// the data itself, not how a Dataset stores it. A change to any generated
// float, any RNG draw or the order of either changes a digest.
class Fnv1a {
 public:
  void bytes(const void* p, std::size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= b[i];
      h_ *= 1099511628211ull;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void dataset(const Dataset& d) {
    u64(d.size());
    if (d.empty()) return;
    std::vector<std::size_t> all(d.size());
    std::iota(all.begin(), all.end(), std::size_t{0});
    const Batch b = make_batch(d, all);
    for (std::size_t dim : b.x.shape()) u64(dim);
    bytes(b.x.data().data(), b.x.size() * sizeof(float));
    bytes(b.labels.data(), b.labels.size() * sizeof(int));
  }
  void split(const ClientSplit& s) {
    dataset(s.train);
    dataset(s.test);
    dataset(s.validation);
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ull;
};

TEST(GoldenData, TextFederationDigest) {
  SyntheticTextGenerator gen({}, 21);
  stats::Rng rng(22);
  const FederatedData fed = build_federation(gen, 50, 80, 1.0, rng);
  Fnv1a h;
  for (const auto& c : fed.clients) h.split(c);
  h.u64(rng.next_u64());  // the stream ends where it always did
  EXPECT_EQ(h.value(), 0x38470dca0fc04acbull);
}

TEST(GoldenData, ImageFederationDigest) {
  SyntheticImageGenerator gen({}, 23);
  stats::Rng rng(24);
  const FederatedData fed = build_federation(gen, 20, 80, 1.0, rng);
  Fnv1a h;
  for (const auto& c : fed.clients) h.split(c);
  h.u64(rng.next_u64());
  EXPECT_EQ(h.value(), 0x2e69d8c4e9c926c0ull);
}

TEST(GoldenData, LazySplitFactoryDigest) {
  // The mlp-trimmed-lazy100k workload's shape: text clients of 80 samples,
  // alpha 1, indices up to 99,999.
  const auto factory = agg::make_dirichlet_split_factory(
      SyntheticTextGenerator({}, 25), 26, 80, 1.0);
  Fnv1a h;
  for (std::size_t i : {std::size_t{0}, std::size_t{1}, std::size_t{99999}}) {
    h.split(factory(i));
  }
  EXPECT_EQ(h.value(), 0x8d0a74e8c321ba2bull);
}

TEST(GoldenData, PoisonDigests) {
  stats::Rng rng(27);
  SyntheticImageGenerator images({}, 28);
  const Dataset image_set =
      images.generate(std::vector<std::size_t>(10, 6), rng);
  const trojan::WarpTrigger warp({}, 29);
  Fnv1a hw;
  hw.dataset(trojan::mix_poison(image_set, warp, 0, 0.3, rng));
  hw.dataset(trojan::apply_trigger_all(image_set, warp, 0));
  hw.u64(rng.next_u64());
  EXPECT_EQ(hw.value(), 0xe29bff148418148bull);

  SyntheticTextGenerator text({}, 30);
  const Dataset text_set = text.generate(std::vector<std::size_t>{40, 24}, rng);
  trojan::EmbeddingTriggerConfig ecfg;
  ecfg.dim = text.config().embedding_dim;
  const trojan::EmbeddingTrigger embed(ecfg, 31);
  Fnv1a he;
  he.dataset(trojan::mix_poison(text_set, embed, 0, 0.25, rng));
  he.dataset(trojan::apply_trigger_all(text_set, embed, 1));
  he.u64(rng.next_u64());
  EXPECT_EQ(he.value(), 0x6720ecc85e900979ull);
}

}  // namespace
}  // namespace collapois::data
