// Flat-vector geometry used everywhere gradients are treated as points in
// R^m: dot products, norms, cosine similarity, and the angle statistics at
// the heart of the paper (Figs. 3 and 6, Theorem 1's beta_i angles).
//
// Gradients and model parameters are stored as std::vector<float>; the
// accumulating arithmetic is done in double for stability.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace collapois::runtime {
class ThreadPool;
}

namespace collapois::stats {

double dot(std::span<const float> a, std::span<const float> b);
double l2_norm(std::span<const float> v);
double l2_distance(std::span<const float> a, std::span<const float> b);

// Cosine similarity in [-1, 1]; 0 if either vector is zero.
double cosine_similarity(std::span<const float> a, std::span<const float> b);

// Angle between two vectors in radians, in [0, pi]; pi/2 (acos of the
// zero cosine above) if either is zero.
double angle_between(std::span<const float> a, std::span<const float> b);

// Double-precision overloads (label distributions in Eq. 9 are doubles).
double dot(std::span<const double> a, std::span<const double> b);
double l2_norm(std::span<const double> v);
double cosine_similarity(std::span<const double> a,
                         std::span<const double> b);

// --- pairwise squared distances -----------------------------------------
// The O(n^2 d) kernel at the heart of the distance-based defenses (Krum's
// neighbour scores, FLARE's trust estimates). Both functions fill the full
// symmetric n x n matrix `out` (row-major, zero diagonal) of squared L2
// distances between the rows of the contiguous row-major [n x d] array
// `rows`.
//
// naive: per-pair scalar loops with double accumulation — the reference
// path, summing each pair exactly the way the old per-defense loops did.
void pairwise_sq_distances_naive(const float* rows, std::size_t n,
                                 std::size_t d, double* out);

// gram: the Gram-matrix identity ||a_i - a_j||^2 =
// ||a_i||^2 + ||a_j||^2 - 2 (A A^T)_ij over the blocked GEMM
// (kernels::ops_for(blocked)), computed in fixed 64-row block pairs of the
// upper triangle dispatched on `pool` (nullptr = inline). The block
// decomposition depends only on n, and every block pair writes a disjoint
// region of `out`, so the result is bit-identical for any thread count.
// `row_sqnorms` must hold the double-accumulated squared norm of each row.
// Entries are clamped at zero (the identity can round slightly negative
// for near-identical rows); results agree with the naive path to GEMM
// float-accumulation tolerance, not bit-for-bit.
void pairwise_sq_distances_gram(const float* rows, std::size_t n,
                                std::size_t d, const double* row_sqnorms,
                                double* out, runtime::ThreadPool* pool);

// Pairwise angles among a set of vectors (upper triangle, i < j, row by
// row), the quantity plotted in Fig. 3. Every entry is bitwise equal to
// angle_between(vectors[i], vectors[j]); rows of unequal length throw
// std::invalid_argument.
std::vector<double> pairwise_angles(
    const std::vector<std::vector<float>>& vectors);

// The same over borrowed rows (e.g. spans straight into a round's
// ClientUpdate deltas), so callers never deep-copy vectors to measure them.
std::vector<double> pairwise_angles(
    std::span<const std::span<const float>> rows);

// Angle of each vector against a fixed reference direction (Theorem 1's
// beta_i with the aggregated malicious gradient as reference).
std::vector<double> angles_to_reference(
    const std::vector<std::vector<float>>& vectors,
    std::span<const float> reference);

}  // namespace collapois::stats
