// Tests for the trojan substrate: the WaNet-style warp trigger, the
// patch/DBA decomposition, the embedding trigger, and dataset poisoning.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "data/synthetic_image.h"
#include "data/synthetic_text.h"
#include "trojan/embedding_trigger.h"
#include "trojan/patch_trigger.h"
#include "trojan/poison.h"
#include "trojan/warp_trigger.h"

namespace collapois::trojan {
namespace {

TEST(WarpTrigger, PreservesShape) {
  WarpTrigger t({}, 42);
  Tensor img({16, 16});
  img.fill(0.5f);
  const Tensor warped = t.apply(img);
  EXPECT_EQ(warped.shape(), img.shape());
  Tensor chw({1, 16, 16});
  EXPECT_EQ(t.apply(chw).shape(), chw.shape());
}

TEST(WarpTrigger, DeterministicPerSeed) {
  WarpTrigger a({}, 1);
  WarpTrigger b({}, 1);
  WarpTrigger c({}, 2);
  Tensor img({16, 16});
  for (std::size_t i = 0; i < img.size(); ++i) {
    img[i] = static_cast<float>(i % 7) / 7.0f;
  }
  EXPECT_EQ(a.apply(img).storage(), b.apply(img).storage());
  EXPECT_NE(a.apply(img).storage(), c.apply(img).storage());
}

TEST(WarpTrigger, DistortionIsBoundedButNonzero) {
  // The WaNet property (Fig. 14): visible-content change per pixel is
  // small yet the transformation is not the identity.
  stats::Rng rng(3);
  data::SyntheticImageGenerator gen({}, 4);
  WarpTrigger t({}, 5);
  double total_linf = 0.0;
  double total_l2 = 0.0;
  const int n = 20;
  for (int i = 0; i < n; ++i) {
    const auto e = gen.sample(i % 10, rng);
    const auto d = t.distortion(e.x);
    total_linf += d.linf;
    total_l2 += d.l2;
  }
  EXPECT_GT(total_l2 / n, 0.01);   // not the identity
  EXPECT_LT(total_linf / n, 0.98);  // bounded below a full flip
}

TEST(WarpTrigger, ConstantImageAlmostInvariant) {
  // Warping a constant image only changes border pixels (zero padding);
  // interior pixels are untouched — a structural property of backward
  // warping with a small field.
  WarpTrigger t({}, 6);
  Tensor img({16, 16});
  img.fill(0.7f);
  const Tensor w = t.apply(img);
  double interior_diff = 0.0;
  for (std::size_t y = 3; y < 13; ++y) {
    for (std::size_t x = 3; x < 13; ++x) {
      interior_diff += std::fabs(w.at(y, x) - 0.7f);
    }
  }
  EXPECT_LT(interior_diff, 1e-4);
}

TEST(WarpTrigger, RejectsWrongSizes) {
  WarpTrigger t({}, 7);
  Tensor small({8, 8});
  EXPECT_THROW(t.apply(small), std::invalid_argument);
  Tensor rank1({16});
  EXPECT_THROW(t.apply(rank1), std::invalid_argument);
}

TEST(WarpTrigger, FlowFieldMatchesStrength) {
  WarpConfig cfg;
  cfg.strength = 2.0;
  WarpTrigger t(cfg, 8);
  const Tensor& flow = t.flow();
  EXPECT_EQ(flow.shape(), (std::vector<std::size_t>{2, 16, 16}));
  double mean_abs = 0.0;
  for (float v : flow.data()) mean_abs += std::fabs(v);
  mean_abs /= static_cast<double>(flow.size());
  // The normalization targets a mean-|displacement| of about `strength`.
  EXPECT_NEAR(mean_abs, 2.0, 1.0);
}

TEST(PatchTrigger, StampsPatch) {
  PatchTrigger t({{1, 2, 2, 3, 0.9f}});
  Tensor img({8, 8});
  const Tensor s = t.apply(img);
  EXPECT_EQ(s.at(1, 2), 0.9f);
  EXPECT_EQ(s.at(2, 4), 0.9f);
  EXPECT_EQ(s.at(0, 0), 0.0f);
  EXPECT_EQ(s.at(3, 2), 0.0f);
}

TEST(PatchTrigger, OutOfBoundsThrows) {
  PatchTrigger t({{7, 7, 2, 2, 1.0f}});
  Tensor img({8, 8});
  EXPECT_THROW(t.apply(img), std::invalid_argument);
  EXPECT_THROW(PatchTrigger({}), std::invalid_argument);
}

TEST(PatchTrigger, DbaPartsAssembleToGlobal) {
  const auto global = PatchTrigger::global_dba(16, 16);
  const auto parts = PatchTrigger::dba_parts(16, 16);
  ASSERT_EQ(parts.size(), 4u);
  Tensor img({16, 16});
  for (std::size_t i = 0; i < img.size(); ++i) {
    img[i] = 0.1f * static_cast<float>(i % 5);
  }
  // Applying all parts sequentially equals applying the global trigger.
  Tensor assembled = img;
  for (const auto& p : parts) assembled = p.apply(assembled);
  EXPECT_EQ(assembled.storage(), global.apply(img).storage());
}

TEST(PatchTrigger, DbaRejectsTinyImages) {
  EXPECT_THROW(PatchTrigger::global_dba(4, 4), std::invalid_argument);
}

TEST(EmbeddingTrigger, AddsFixedDirection) {
  EmbeddingTriggerConfig cfg;
  EmbeddingTrigger t(cfg, 9);
  Tensor x({cfg.dim});
  const Tensor shifted = t.apply(x);
  double norm2 = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double d = shifted[i] - x[i];
    norm2 += d * d;
  }
  EXPECT_NEAR(std::sqrt(norm2), cfg.magnitude, 1e-4);
}

TEST(EmbeddingTrigger, PartsSumToWhole) {
  EmbeddingTriggerConfig cfg;
  EmbeddingTrigger whole(cfg, 10);
  Tensor x({cfg.dim});
  Tensor assembled = x;
  for (std::size_t k = 0; k < 4; ++k) {
    assembled = whole.part(k, 4).apply(assembled);
  }
  const Tensor direct = whole.apply(x);
  for (std::size_t i = 0; i < x.size(); ++i) {
    EXPECT_NEAR(assembled[i], direct[i], 1e-5);
  }
  EXPECT_THROW(whole.part(4, 4), std::invalid_argument);
}

TEST(EmbeddingTrigger, RejectsWrongDim) {
  EmbeddingTrigger t({}, 11);
  Tensor wrong({16});
  EXPECT_THROW(t.apply(wrong), std::invalid_argument);
}

TEST(Poison, ApplyTriggerAllRelabels) {
  stats::Rng rng(12);
  data::SyntheticTextGenerator gen({}, 13);
  const std::vector<std::size_t> counts = {10, 10};
  const data::Dataset d = gen.generate(counts, rng);
  EmbeddingTrigger t({}, 14);
  const data::Dataset p = apply_trigger_all(d, t, 0);
  EXPECT_EQ(p.size(), d.size());
  for (std::size_t i = 0; i < p.size(); ++i) EXPECT_EQ(p.label(i), 0);
  EXPECT_THROW(apply_trigger_all(d, t, 5), std::invalid_argument);
}

TEST(Poison, MixPoisonAddsFraction) {
  stats::Rng rng(15);
  data::SyntheticTextGenerator gen({}, 16);
  const std::vector<std::size_t> counts = {20, 20};
  const data::Dataset clean = gen.generate(counts, rng);
  EmbeddingTrigger t({}, 17);
  const data::Dataset mixed = mix_poison(clean, t, 0, 0.5, rng);
  EXPECT_EQ(mixed.size(), 60u);  // 40 clean + 20 poisoned
  // The clean prefix is intact.
  for (std::size_t i = 0; i < clean.size(); ++i) {
    EXPECT_EQ(mixed.label(i), clean.label(i));
    EXPECT_TRUE(std::ranges::equal(mixed.row(i), clean.row(i)));
  }
  // The appended examples all carry the target label.
  for (std::size_t i = clean.size(); i < mixed.size(); ++i) {
    EXPECT_EQ(mixed.label(i), 0);
  }
  EXPECT_THROW(mix_poison(clean, t, 0, 1.5, rng), std::invalid_argument);
}

TEST(Poison, ZeroFractionIsClean) {
  stats::Rng rng(18);
  data::SyntheticTextGenerator gen({}, 19);
  const std::vector<std::size_t> counts = {5, 5};
  const data::Dataset clean = gen.generate(counts, rng);
  EmbeddingTrigger t({}, 20);
  EXPECT_EQ(mix_poison(clean, t, 0, 0.0, rng).size(), clean.size());
}

TEST(Trigger, DistortionDetectsShapeChange) {
  // distortion() must reject triggers that change element counts.
  struct BadTrigger : Trigger {
    Tensor apply(const Tensor&) const override { return Tensor({2}); }
    std::unique_ptr<Trigger> clone() const override {
      return std::make_unique<BadTrigger>();
    }
  };
  BadTrigger bad;
  Tensor x({3});
  EXPECT_THROW(bad.distortion(x), std::logic_error);
}

}  // namespace
}  // namespace collapois::trojan
