#include "net/codec.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "kernels/cpu_dispatch.h"
#include "net/codec_tiles.h"

namespace collapois::net {

namespace detail {

namespace {

// ---- scalar tier -------------------------------------------------------

void scalar_f32_to_f16(const float* src, std::uint16_t* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = half_from_float(src[i]);
}

void scalar_f16_to_f32(const std::uint16_t* src, float* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) dst[i] = float_from_half(src[i]);
}

void scalar_absmax_scan(const float* src, std::size_t n, float* max_abs,
                        bool* all_finite) {
  float m = 0.0f;
  std::uint32_t exp_and = 0;  // tracks whether any exponent is all-ones
  bool finite = true;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, src + i, sizeof(bits));
    exp_and = bits & 0x7f800000u;
    if (exp_and == 0x7f800000u) finite = false;
    float a = 0.0f;
    bits &= 0x7fffffffu;
    std::memcpy(&a, &bits, sizeof(a));
    // (m < a) ? a : m — the maxps lane semantics, NOT std::max, so the
    // SIMD tiers reduce to the identical value.
    m = (m < a) ? a : m;
  }
  *max_abs = m;
  *all_finite = finite;
}

void scalar_quantize_i8(const float* src, std::int8_t* dst, std::size_t n,
                        float inv_scale) {
  for (std::size_t i = 0; i < n; ++i) {
    // rne via nearbyintf (default rounding mode) == cvtps_epi32.
    int q = static_cast<int>(std::nearbyintf(src[i] * inv_scale));
    q = std::clamp(q, -127, 127);
    dst[i] = static_cast<std::int8_t>(q);
  }
}

void scalar_dequantize_i8(const std::int8_t* src, float* dst, std::size_t n,
                          float scale) {
  for (std::size_t i = 0; i < n; ++i) {
    dst[i] = static_cast<float>(src[i]) * scale;
  }
}

void scalar_abs_values(const float* src, float* dst, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    std::uint32_t bits = 0;
    std::memcpy(&bits, src + i, sizeof(bits));
    bits &= 0x7fffffffu;
    std::memcpy(dst + i, &bits, sizeof(bits));
  }
}

void scalar_scatter_add(const std::uint32_t* idx, const float* val,
                        std::size_t k, float* dst) {
  for (std::size_t i = 0; i < k; ++i) dst[idx[i]] += val[i];
}

// ---- sse2 tier ---------------------------------------------------------
//
// The integer half<->float construction above, four lanes at a time, with
// compare masks in place of the branches; remainders go through the
// scalar elementwise helpers, so the output is bitwise identical to the
// scalar tier.

#if defined(__SSE2__)

void sse2_f32_to_f16(const float* src, std::uint16_t* dst, std::size_t n) {
  const __m128i abs_mask = _mm_set1_epi32(0x7fffffff);
  const __m128i f32_infty = _mm_set1_epi32(255 << 23);
  const __m128i f16_max = _mm_set1_epi32((127 + 16) << 23);
  const __m128i denorm_cut = _mm_set1_epi32(113 << 23);
  const __m128 denorm_magic = _mm_set1_ps(0.5f);
  const __m128i denorm_magic_bits = _mm_set1_epi32(0x3f000000);
  const __m128i exp_rebias = _mm_set1_epi32(
      static_cast<int>((static_cast<std::uint32_t>(15 - 127) << 23) + 0xfff));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i f =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    const __m128i sign16 =
        _mm_and_si128(_mm_srli_epi32(f, 16), _mm_set1_epi32(0x8000));
    const __m128i a = _mm_and_si128(f, abs_mask);

    // Special lanes (integer compares are signed, but every operand here
    // has the sign bit clear, so the order is the unsigned order).
    const __m128i is_naninf = _mm_cmpgt_epi32(a, _mm_sub_epi32(f32_infty,
                                                               _mm_set1_epi32(1)));
    const __m128i is_nan = _mm_cmpgt_epi32(a, f32_infty);
    const __m128i is_overflow =
        _mm_cmpgt_epi32(a, _mm_sub_epi32(f16_max, _mm_set1_epi32(1)));
    const __m128i is_denorm = _mm_cmplt_epi32(a, denorm_cut);

    // Subnormal path: one RNE float add, then strip the magic bits.
    const __m128 dn =
        _mm_add_ps(_mm_castsi128_ps(a), denorm_magic);
    const __m128i dn_bits =
        _mm_sub_epi32(_mm_castps_si128(dn), denorm_magic_bits);

    // Normal path: rebias + round-to-nearest-even via the odd-mantissa
    // increment.
    const __m128i mant_odd =
        _mm_and_si128(_mm_srli_epi32(a, 13), _mm_set1_epi32(1));
    const __m128i nm =
        _mm_srli_epi32(_mm_add_epi32(_mm_add_epi32(a, exp_rebias), mant_odd),
                       13);

    const __m128i naninf_val = _mm_or_si128(
        _mm_and_si128(is_nan, _mm_set1_epi32(0x7e00)),
        _mm_andnot_si128(is_nan, _mm_set1_epi32(0x7c00)));

    __m128i h = _mm_or_si128(_mm_and_si128(is_denorm, dn_bits),
                             _mm_andnot_si128(is_denorm, nm));
    h = _mm_or_si128(_mm_and_si128(is_overflow, _mm_set1_epi32(0x7c00)),
                     _mm_andnot_si128(is_overflow, h));
    h = _mm_or_si128(_mm_and_si128(is_naninf, naninf_val),
                     _mm_andnot_si128(is_naninf, h));
    h = _mm_or_si128(h, sign16);

    // Four u32 lanes -> four u16s. packs_epi32 saturates SIGNED, and a
    // negative half has lane value >= 0x8000, so bias the lanes down into
    // int16 range, pack, and undo the bias in 16-bit space.
    const __m128i biased = _mm_sub_epi32(h, _mm_set1_epi32(0x8000));
    const __m128i packed = _mm_xor_si128(
        _mm_packs_epi32(biased, biased),
        _mm_set1_epi16(static_cast<short>(0x8000)));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(dst + i), packed);
  }
  for (; i < n; ++i) dst[i] = half_from_float(src[i]);
}

void sse2_f16_to_f32(const std::uint16_t* src, float* dst, std::size_t n) {
  const __m128i shifted_exp = _mm_set1_epi32(0x7c00 << 13);
  const __m128i exp_adjust = _mm_set1_epi32((127 - 15) << 23);
  const __m128i naninf_adjust = _mm_set1_epi32((128 - 16) << 23);
  const __m128 denorm_magic = _mm_castsi128_ps(_mm_set1_epi32(113 << 23));
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i h16 =
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(src + i));
    const __m128i h = _mm_unpacklo_epi16(h16, _mm_setzero_si128());
    const __m128i mag =
        _mm_slli_epi32(_mm_and_si128(h, _mm_set1_epi32(0x7fff)), 13);
    const __m128i exp = _mm_and_si128(mag, shifted_exp);
    __m128i o = _mm_add_epi32(mag, exp_adjust);

    const __m128i is_naninf = _mm_cmpeq_epi32(exp, shifted_exp);
    const __m128i is_denorm = _mm_cmpeq_epi32(exp, _mm_setzero_si128());

    o = _mm_add_epi32(o, _mm_and_si128(is_naninf, naninf_adjust));
    const __m128i dn_bits = _mm_add_epi32(o, _mm_set1_epi32(1 << 23));
    const __m128 dn =
        _mm_sub_ps(_mm_castsi128_ps(dn_bits), denorm_magic);
    o = _mm_or_si128(_mm_and_si128(is_denorm, _mm_castps_si128(dn)),
                     _mm_andnot_si128(is_denorm, o));
    const __m128i sign =
        _mm_slli_epi32(_mm_and_si128(h, _mm_set1_epi32(0x8000)), 16);
    o = _mm_or_si128(o, sign);
    _mm_storeu_ps(dst + i, _mm_castsi128_ps(o));
  }
  for (; i < n; ++i) dst[i] = float_from_half(src[i]);
}

void sse2_absmax_scan(const float* src, std::size_t n, float* max_abs,
                      bool* all_finite) {
  const __m128i abs_mask = _mm_set1_epi32(0x7fffffff);
  const __m128i exp_mask = _mm_set1_epi32(0x7f800000);
  __m128 m = _mm_setzero_ps();
  __m128i nonfinite = _mm_setzero_si128();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i bits =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    nonfinite = _mm_or_si128(
        nonfinite, _mm_cmpeq_epi32(_mm_and_si128(bits, exp_mask), exp_mask));
    m = _mm_max_ps(m, _mm_castsi128_ps(_mm_and_si128(bits, abs_mask)));
  }
  // Horizontal max over the four lanes (order-free for non-NaN values).
  alignas(16) float lanes[4];
  _mm_store_ps(lanes, m);
  float mm = lanes[0];
  mm = (mm < lanes[1]) ? lanes[1] : mm;
  mm = (mm < lanes[2]) ? lanes[2] : mm;
  mm = (mm < lanes[3]) ? lanes[3] : mm;
  bool finite = _mm_movemask_epi8(nonfinite) == 0;
  float tail_max = 0.0f;
  bool tail_finite = true;
  scalar_absmax_scan(src + i, n - i, &tail_max, &tail_finite);
  mm = (mm < tail_max) ? tail_max : mm;
  *max_abs = mm;
  *all_finite = finite && tail_finite;
}

void sse2_quantize_i8(const float* src, std::int8_t* dst, std::size_t n,
                      float inv_scale) {
  const __m128 vs = _mm_set1_ps(inv_scale);
  const __m128i lo = _mm_set1_epi32(-127);
  const __m128i hi = _mm_set1_epi32(127);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // cvtps_epi32 rounds to nearest even under the default MXCSR mode —
    // the same rne as the scalar nearbyintf path.
    __m128i q = _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(src + i), vs));
    // Integer clamp without pminsd/pmaxsd (SSE4.1): blend via masks.
    const __m128i gt = _mm_cmpgt_epi32(q, hi);
    q = _mm_or_si128(_mm_and_si128(gt, hi), _mm_andnot_si128(gt, q));
    const __m128i lt = _mm_cmplt_epi32(q, lo);
    q = _mm_or_si128(_mm_and_si128(lt, lo), _mm_andnot_si128(lt, q));
    alignas(16) std::int32_t lanes[4];
    _mm_store_si128(reinterpret_cast<__m128i*>(lanes), q);
    dst[i + 0] = static_cast<std::int8_t>(lanes[0]);
    dst[i + 1] = static_cast<std::int8_t>(lanes[1]);
    dst[i + 2] = static_cast<std::int8_t>(lanes[2]);
    dst[i + 3] = static_cast<std::int8_t>(lanes[3]);
  }
  scalar_quantize_i8(src + i, dst + i, n - i, inv_scale);
}

void sse2_dequantize_i8(const std::int8_t* src, float* dst, std::size_t n,
                        float scale) {
  const __m128 vs = _mm_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    // Sign-extend four int8s to int32 lanes, convert, scale.
    __m128i b = _mm_cvtsi32_si128(0);
    std::int32_t word = 0;
    std::memcpy(&word, src + i, sizeof(word));
    b = _mm_cvtsi32_si128(word);
    b = _mm_unpacklo_epi8(b, b);
    b = _mm_unpacklo_epi16(b, b);
    b = _mm_srai_epi32(b, 24);
    _mm_storeu_ps(dst + i, _mm_mul_ps(_mm_cvtepi32_ps(b), vs));
  }
  scalar_dequantize_i8(src + i, dst + i, n - i, scale);
}

void sse2_abs_values(const float* src, float* dst, std::size_t n) {
  const __m128i abs_mask = _mm_set1_epi32(0x7fffffff);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m128i bits =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(src + i));
    _mm_storeu_si128(reinterpret_cast<__m128i*>(dst + i),
                     _mm_and_si128(bits, abs_mask));
  }
  scalar_abs_values(src + i, dst + i, n - i);
}

#endif  // __SSE2__

}  // namespace

const CodecOps kScalarCodecOps{
    scalar_f32_to_f16,   scalar_f16_to_f32,   scalar_absmax_scan,
    scalar_quantize_i8,  scalar_dequantize_i8, scalar_abs_values,
    scalar_scatter_add,
};

#if defined(__SSE2__)
const CodecOps kSse2CodecOps{
    sse2_f32_to_f16,   sse2_f16_to_f32,   sse2_absmax_scan,
    sse2_quantize_i8,  sse2_dequantize_i8, sse2_abs_values,
    scalar_scatter_add,
};
#endif

const CodecOps& codec_ops() {
  switch (kernels::active_tier()) {
#if defined(__SSE2__)
    case kernels::IsaTier::sse2:
      return kSse2CodecOps;
#endif
    case kernels::IsaTier::avx2:
      if (avx2_codec_compiled()) return avx2_codec_ops();
      break;
    default:
      break;
  }
  return kScalarCodecOps;
}

}  // namespace detail

// ---- codec config ------------------------------------------------------

const char* codec_kind_name(CodecKind kind) {
  switch (kind) {
    case CodecKind::identity: return "identity";
    case CodecKind::fp16: return "fp16";
    case CodecKind::int8: return "int8";
    case CodecKind::topk: return "topk";
  }
  return "unknown";
}

CodecKind parse_codec_kind(const std::string& name) {
  if (name == "identity") return CodecKind::identity;
  if (name == "fp16") return CodecKind::fp16;
  if (name == "int8") return CodecKind::int8;
  if (name == "topk") return CodecKind::topk;
  throw std::invalid_argument("unknown codec '" + name +
                              "' (expected identity | fp16 | int8 | topk)");
}

void validate_codec(const CodecConfig& config) {
  switch (config.kind) {
    case CodecKind::identity:
    case CodecKind::fp16:
      break;
    case CodecKind::int8:
      if (config.bits != 8) {
        throw std::invalid_argument(
            "CodecConfig: only 8-bit quantization is supported "
            "(--codec-bits 8)");
      }
      break;
    case CodecKind::topk:
      if (!std::isfinite(config.topk_fraction) || config.topk_fraction <= 0.0 ||
          config.topk_fraction > 1.0) {
        throw std::invalid_argument(
            "CodecConfig: topk_fraction must be in (0, 1] (--codec-topk)");
      }
      break;
  }
}

bool codec_is_lossy(CodecKind kind) { return kind != CodecKind::identity; }

std::uint32_t codec_capability_all() {
  return (1u << static_cast<std::uint32_t>(CodecKind::identity)) |
         (1u << static_cast<std::uint32_t>(CodecKind::fp16)) |
         (1u << static_cast<std::uint32_t>(CodecKind::int8)) |
         (1u << static_cast<std::uint32_t>(CodecKind::topk));
}

CodecConfig negotiate_codec(const CodecConfig& server_offer,
                            std::uint32_t client_capabilities) {
  const std::uint32_t bit = 1u
                            << static_cast<std::uint32_t>(server_offer.kind);
  if ((client_capabilities & bit) != 0) return server_offer;
  // Identity is the raw wire format — every client speaks it.
  CodecConfig fallback = server_offer;
  fallback.kind = CodecKind::identity;
  return fallback;
}

std::uint16_t codec_float_to_half(float x) {
  return detail::half_from_float(x);
}

float codec_half_to_float(std::uint16_t h) {
  return detail::float_from_half(h);
}

// ---- encode / decode ---------------------------------------------------

namespace {

// LEB128-style varint over the index gaps of the topk codec: benign
// 10%-density updates average ~1 byte per kept index vs 4 raw.
void put_varint(std::vector<std::uint8_t>& out, std::uint64_t v) {
  while (v >= 0x80) {
    out.push_back(static_cast<std::uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out.push_back(static_cast<std::uint8_t>(v));
}

std::uint64_t get_varint(const std::vector<std::uint8_t>& in,
                         std::size_t& pos) {
  std::uint64_t v = 0;
  unsigned shift = 0;
  while (true) {
    if (pos >= in.size() || shift > 63) {
      throw std::runtime_error("codec: malformed varint in topk index blob");
    }
    const std::uint8_t b = in[pos++];
    v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
    if ((b & 0x80) == 0) return v;
    shift += 7;
  }
}

// The poison marker: a lossy encoder that sees a non-finite element
// writes (n, all_finite=false) and nothing else; the decoder returns n
// NaNs so the server's finiteness check rejects the update exactly like
// the fp32 original.
tensor::FlatVec poisoned_delta(std::size_t n) {
  return tensor::FlatVec(n, std::numeric_limits<float>::quiet_NaN());
}

void encode_fp16(fl::StateWriter& w, std::span<const float> delta,
                 const detail::CodecOps& ops) {
  const std::size_t n = delta.size();
  w.write_size(n);
  float max_abs = 0.0f;
  bool all_finite = true;
  ops.absmax_scan(delta.data(), n, &max_abs, &all_finite);
  w.write_bool(all_finite);
  if (!all_finite) return;
  std::vector<std::uint16_t> half(n);
  ops.f32_to_f16(delta.data(), half.data(), n);
  std::vector<std::uint8_t> blob(2 * n);
  // An empty vector's data() may be null, which memcpy must never see.
  if (n != 0) std::memcpy(blob.data(), half.data(), blob.size());
  w.write_bytes(blob);
}

tensor::FlatVec decode_fp16(fl::StateReader& r, const detail::CodecOps& ops) {
  const std::size_t n = r.read_size();
  if (!r.read_bool()) return poisoned_delta(n);
  const std::vector<std::uint8_t> blob = r.read_bytes();
  if (blob.size() != 2 * n) {
    throw std::runtime_error("codec: fp16 blob size mismatch");
  }
  std::vector<std::uint16_t> half(n);
  if (n != 0) std::memcpy(half.data(), blob.data(), blob.size());
  tensor::FlatVec out(n);
  ops.f16_to_f32(half.data(), out.data(), n);
  return out;
}

void encode_int8(fl::StateWriter& w, std::span<const float> delta,
                 const detail::CodecOps& ops) {
  const std::size_t n = delta.size();
  w.write_size(n);
  float max_abs = 0.0f;
  bool all_finite = true;
  ops.absmax_scan(delta.data(), n, &max_abs, &all_finite);
  w.write_bool(all_finite);
  if (!all_finite) return;
  const float scale = max_abs > 0.0f ? max_abs / 127.0f : 0.0f;
  const float inv_scale = scale > 0.0f ? 127.0f / max_abs : 0.0f;
  std::uint32_t scale_bits = 0;
  std::memcpy(&scale_bits, &scale, sizeof(scale_bits));
  w.write_u64(scale_bits);
  std::vector<std::uint8_t> blob(n);
  ops.quantize_i8(delta.data(), reinterpret_cast<std::int8_t*>(blob.data()),
                  n, inv_scale);
  w.write_bytes(blob);
}

tensor::FlatVec decode_int8(fl::StateReader& r, const detail::CodecOps& ops) {
  const std::size_t n = r.read_size();
  if (!r.read_bool()) return poisoned_delta(n);
  const std::uint64_t scale_u64 = r.read_u64();
  if (scale_u64 > 0xffffffffULL) {
    throw std::runtime_error("codec: int8 scale field out of range");
  }
  const std::uint32_t scale_bits = static_cast<std::uint32_t>(scale_u64);
  float scale = 0.0f;
  std::memcpy(&scale, &scale_bits, sizeof(scale));
  if (!std::isfinite(scale) || scale < 0.0f) {
    throw std::runtime_error("codec: int8 scale is not a valid magnitude");
  }
  const std::vector<std::uint8_t> blob = r.read_bytes();
  if (blob.size() != n) {
    throw std::runtime_error("codec: int8 blob size mismatch");
  }
  tensor::FlatVec out(n);
  ops.dequantize_i8(reinterpret_cast<const std::int8_t*>(blob.data()),
                    out.data(), n, scale);
  return out;
}

void encode_topk(fl::StateWriter& w, std::span<const float> delta,
                 const CodecConfig& config, const detail::CodecOps& ops) {
  const std::size_t n = delta.size();
  if (n > std::numeric_limits<std::uint32_t>::max()) {
    throw std::runtime_error("codec: topk delta dimension exceeds u32 range");
  }
  w.write_size(n);
  float max_abs = 0.0f;
  bool all_finite = true;
  ops.absmax_scan(delta.data(), n, &max_abs, &all_finite);
  w.write_bool(all_finite);
  if (!all_finite) return;
  const std::size_t k =
      n == 0 ? 0
             : std::min<std::size_t>(
                   n, std::max<std::size_t>(
                          1, static_cast<std::size_t>(std::ceil(
                                 config.topk_fraction *
                                 static_cast<double>(n)))));
  w.write_size(k);
  std::vector<std::uint32_t> idx;
  idx.reserve(k);
  if (k == n) {
    for (std::size_t i = 0; i < n; ++i) {
      idx.push_back(static_cast<std::uint32_t>(i));
    }
  } else if (k > 0) {
    std::vector<float> mags(n);
    ops.abs_values(delta.data(), mags.data(), n);
    std::vector<float> order = mags;
    // The (n-k)-th smallest |x| is the k-th largest: the kept-set
    // threshold T.
    std::nth_element(order.begin(), order.begin() + (n - k), order.end());
    const float threshold = order[n - k];
    // Deterministic tie-break: every |x| > T is kept; the remaining slots
    // go to |x| == T in ascending index order. The selection is a pure
    // function of the values, identical on every tier.
    for (std::size_t i = 0; i < n && idx.size() < k; ++i) {
      if (mags[i] > threshold) idx.push_back(static_cast<std::uint32_t>(i));
    }
    std::size_t kept_above = idx.size();
    for (std::size_t i = 0; i < n && idx.size() < k; ++i) {
      if (mags[i] == threshold) idx.push_back(static_cast<std::uint32_t>(i));
    }
    std::sort(idx.begin(), idx.end());
    (void)kept_above;
  }
  std::vector<std::uint8_t> index_blob;
  index_blob.reserve(k + 8);
  std::uint32_t prev = 0;
  for (std::size_t i = 0; i < idx.size(); ++i) {
    // First index absolute; later ones as (gap - 1), gaps >= 1 because
    // the sorted indices are unique.
    const std::uint64_t gap = i == 0 ? idx[0] : (idx[i] - prev - 1);
    put_varint(index_blob, gap);
    prev = idx[i];
  }
  w.write_bytes(index_blob);
  std::vector<float> kept(k);
  for (std::size_t i = 0; i < k; ++i) kept[i] = delta[idx[i]];
  std::vector<std::uint16_t> half(k);
  ops.f32_to_f16(kept.data(), half.data(), k);
  std::vector<std::uint8_t> value_blob(2 * k);
  if (k != 0) std::memcpy(value_blob.data(), half.data(), value_blob.size());
  w.write_bytes(value_blob);
}

tensor::FlatVec decode_topk(fl::StateReader& r, const detail::CodecOps& ops) {
  const std::size_t n = r.read_size();
  if (!r.read_bool()) return poisoned_delta(n);
  const std::size_t k = r.read_size();
  if (k > n) throw std::runtime_error("codec: topk k exceeds dimension");
  const std::vector<std::uint8_t> index_blob = r.read_bytes();
  std::vector<std::uint32_t> idx(k);
  std::size_t pos = 0;
  std::uint64_t prev = 0;
  for (std::size_t i = 0; i < k; ++i) {
    const std::uint64_t gap = get_varint(index_blob, pos);
    const std::uint64_t v = i == 0 ? gap : prev + 1 + gap;
    if (v >= n) throw std::runtime_error("codec: topk index out of range");
    idx[i] = static_cast<std::uint32_t>(v);
    prev = v;
  }
  if (pos != index_blob.size()) {
    throw std::runtime_error("codec: trailing bytes in topk index blob");
  }
  const std::vector<std::uint8_t> value_blob = r.read_bytes();
  if (value_blob.size() != 2 * k) {
    throw std::runtime_error("codec: topk value blob size mismatch");
  }
  std::vector<std::uint16_t> half(k);
  if (k != 0) std::memcpy(half.data(), value_blob.data(), value_blob.size());
  std::vector<float> vals(k);
  ops.f16_to_f32(half.data(), vals.data(), k);
  tensor::FlatVec out(n, 0.0f);
  // Indices are unique, so the scatter-ADD into the zero vector is an
  // assignment — the op is additive so sparse deltas could also be
  // accumulated straight into fl::UpdateMatrix rows.
  ops.scatter_add(idx.data(), vals.data(), k, out.data());
  return out;
}

}  // namespace

void encode_delta(fl::StateWriter& w, std::span<const float> delta,
                  const CodecConfig& config) {
  const detail::CodecOps& ops = detail::codec_ops();
  switch (config.kind) {
    case CodecKind::identity:
      w.write_floats(delta);
      return;
    case CodecKind::fp16:
      encode_fp16(w, delta, ops);
      return;
    case CodecKind::int8:
      encode_int8(w, delta, ops);
      return;
    case CodecKind::topk:
      encode_topk(w, delta, config, ops);
      return;
  }
  throw std::logic_error("encode_delta: unhandled codec kind");
}

tensor::FlatVec decode_delta(fl::StateReader& r, const CodecConfig& config) {
  const detail::CodecOps& ops = detail::codec_ops();
  switch (config.kind) {
    case CodecKind::identity:
      return r.read_floats();
    case CodecKind::fp16:
      return decode_fp16(r, ops);
    case CodecKind::int8:
      return decode_int8(r, ops);
    case CodecKind::topk:
      return decode_topk(r, ops);
  }
  throw std::logic_error("decode_delta: unhandled codec kind");
}

}  // namespace collapois::net
