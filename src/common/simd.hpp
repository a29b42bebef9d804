// Small SIMD dispatch layer for the numeric hot loops (FTRAN/BTRAN,
// dual-simplex pricing, zonotope generator-matrix affine maps).
//
// Design rules:
//   * The scalar fallback is ALWAYS compiled and reachable at runtime via
//     `set_force_scalar(true)`, so differential tests can A/B the vector
//     and scalar paths inside one process. Compile-time
//     dispatch alone cannot produce that in-process comparison.
//   * Vector bodies are guarded by __AVX2__ (plus FMA where used); when
//     the translation unit is built without those flags the dispatchers
//     collapse to the scalar bodies and the toggle becomes a no-op.
//   * Kernels take raw pointers + lengths over contiguous storage. Hot
//     data structures (the basis LU's SoA sparse vectors, zonotope
//     generator rows) are laid out so these apply directly; there is no
//     gather-free guarantee, but index arrays are int32 so AVX2's
//     vpgatherdpd can consume them.
//   * No alignment requirement: loads/stores are unaligned (loadu/storeu).
//     On every AVX2 core that matters, unaligned ops on cache-resident
//     data cost the same as aligned ones, and the solver's vectors come
//     from std::vector which only guarantees 16-byte alignment.
#pragma once

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstddef>
#include <cstdint>

#if defined(__AVX2__)
#include <immintrin.h>
#endif

namespace dpv::simd {

namespace detail {
inline std::atomic<bool>& force_scalar_flag() {
  static std::atomic<bool> flag{false};
  return flag;
}
}  // namespace detail

/// When true every dispatcher below takes its scalar body, regardless of
/// how the binary was compiled. Used by the differential tests to compare
/// the vector bodies against the scalar ones.
inline void set_force_scalar(bool value) {
  detail::force_scalar_flag().store(value, std::memory_order_relaxed);
}
inline bool force_scalar() {
  return detail::force_scalar_flag().load(std::memory_order_relaxed);
}

/// True when the binary carries AVX2 bodies (i.e. the toggle can change
/// anything at all). The LP-core bench records this in its JSON.
constexpr bool compiled_with_avx2() {
#if defined(__AVX2__)
  return true;
#else
  return false;
#endif
}

/// Name of the active backend, for bench/report output.
inline const char* backend_name() {
  return (compiled_with_avx2() && !force_scalar()) ? "avx2" : "scalar";
}

// ---------------------------------------------------------------------------
// Dense kernels
// ---------------------------------------------------------------------------

/// sum_i a[i] * b[i]
inline double dot(const double* a, const double* b, std::size_t n) {
#if defined(__AVX2__) && defined(__FMA__)
  if (!force_scalar() && n >= 8) {
    __m256d acc0 = _mm256_setzero_pd();
    __m256d acc1 = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      acc0 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i), _mm256_loadu_pd(b + i), acc0);
      acc1 = _mm256_fmadd_pd(_mm256_loadu_pd(a + i + 4), _mm256_loadu_pd(b + i + 4), acc1);
    }
    acc0 = _mm256_add_pd(acc0, acc1);
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc0);
    double sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i) sum += a[i] * b[i];
    return sum;
  }
#endif
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += a[i] * b[i];
  return sum;
}

/// y[i] += alpha * x[i]
inline void axpy(double alpha, const double* x, double* y, std::size_t n) {
#if defined(__AVX2__) && defined(__FMA__)
  if (!force_scalar() && n >= 4) {
    const __m256d va = _mm256_set1_pd(alpha);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d vy = _mm256_loadu_pd(y + i);
      _mm256_storeu_pd(y + i, _mm256_fmadd_pd(va, _mm256_loadu_pd(x + i), vy));
    }
    for (; i < n; ++i) y[i] += alpha * x[i];
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

/// x[i] *= s[i] — elementwise (Hadamard) product; the zonotope
/// generator half of a diagonal affine map (batchnorm scale).
inline void hadamard(double* x, const double* s, std::size_t n) {
#if defined(__AVX2__)
  if (!force_scalar() && n >= 4) {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
      _mm256_storeu_pd(x + i, _mm256_mul_pd(_mm256_loadu_pd(x + i),
                                            _mm256_loadu_pd(s + i)));
    for (; i < n; ++i) x[i] *= s[i];
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) x[i] *= s[i];
}

/// x[i] = s[i] * x[i] + b[i] — the zonotope center half of a diagonal
/// affine map (batchnorm scale + shift).
inline void hadamard_fma(double* x, const double* s, const double* b,
                         std::size_t n) {
#if defined(__AVX2__) && defined(__FMA__)
  if (!force_scalar() && n >= 4) {
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
      _mm256_storeu_pd(x + i,
                       _mm256_fmadd_pd(_mm256_loadu_pd(s + i),
                                       _mm256_loadu_pd(x + i),
                                       _mm256_loadu_pd(b + i)));
    for (; i < n; ++i) x[i] = s[i] * x[i] + b[i];
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) x[i] = s[i] * x[i] + b[i];
}

/// g[i] = max(g[i], c * w[i]²) — the Forrest–Goldfarb Devex reference-
/// weight propagation over the FTRAN'd pivot column.
inline void max_square_scaled(const double* w, double c, double* g,
                              std::size_t n) {
#if defined(__AVX2__)
  if (!force_scalar() && n >= 4) {
    const __m256d vc = _mm256_set1_pd(c);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d vw = _mm256_loadu_pd(w + i);
      const __m256d cand = _mm256_mul_pd(vc, _mm256_mul_pd(vw, vw));
      _mm256_storeu_pd(g + i, _mm256_max_pd(_mm256_loadu_pd(g + i), cand));
    }
    for (; i < n; ++i) g[i] = std::max(g[i], c * w[i] * w[i]);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) g[i] = std::max(g[i], c * w[i] * w[i]);
}

/// Dual-simplex leaving-row scan: over rows i with xb[i] outside
/// [lo[i], up[i]] by more than `tol`, returns the index maximizing the
/// violation v = max(lo[i] - xb[i], xb[i] - up[i]) scored as
/// v² / weights[i] (Devex reference weights, all positive) — or `n` when
/// no row is violated. Ties keep the smallest
/// index, which is exactly what the scalar first-strict-win loop
/// produces, so the vector and scalar paths pick identical rows (the
/// per-lane running max uses the same strict > and the horizontal
/// reduction breaks equal lane scores toward the earlier index).
inline std::size_t argmax_violation(const double* xb, const double* lo,
                                    const double* up, const double* weights,
                                    double tol, std::size_t n) {
#if defined(__AVX2__)
  if (!force_scalar() && n >= 8) {
    const __m256d vtol = _mm256_set1_pd(tol);
    __m256d best = _mm256_setzero_pd();
    __m256i besti = _mm256_set1_epi64x(-1);
    __m256i cur = _mm256_setr_epi64x(0, 1, 2, 3);
    const __m256i four = _mm256_set1_epi64x(4);
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4, cur = _mm256_add_epi64(cur, four)) {
      const __m256d vxb = _mm256_loadu_pd(xb + i);
      const __m256d v =
          _mm256_max_pd(_mm256_sub_pd(_mm256_loadu_pd(lo + i), vxb),
                        _mm256_sub_pd(vxb, _mm256_loadu_pd(up + i)));
      const __m256d valid = _mm256_cmp_pd(v, vtol, _CMP_GT_OQ);
      __m256d score =
          _mm256_div_pd(_mm256_mul_pd(v, v), _mm256_loadu_pd(weights + i));
      // Invalid lanes become 0.0 and can never beat the strict > below
      // (valid scores are positive: v > tol >= 0, weights positive).
      score = _mm256_and_pd(score, valid);
      const __m256d gt = _mm256_cmp_pd(score, best, _CMP_GT_OQ);
      best = _mm256_blendv_pd(best, score, gt);
      besti = _mm256_castpd_si256(_mm256_blendv_pd(
          _mm256_castsi256_pd(besti), _mm256_castsi256_pd(cur), gt));
    }
    alignas(32) double lane_score[4];
    alignas(32) std::int64_t lane_index[4];
    _mm256_store_pd(lane_score, best);
    _mm256_store_si256(reinterpret_cast<__m256i*>(lane_index), besti);
    double best_score = 0.0;
    std::int64_t best_index = -1;
    for (int l = 0; l < 4; ++l) {
      if (lane_index[l] < 0) continue;
      if (best_score < lane_score[l] ||
          (best_score == lane_score[l] && lane_index[l] < best_index)) {
        best_score = lane_score[l];
        best_index = lane_index[l];
      }
    }
    for (; i < n; ++i) {  // scalar tail, strict > keeps earlier winners
      const double v = std::max(lo[i] - xb[i], xb[i] - up[i]);
      if (v <= tol) continue;
      const double score = v * v / weights[i];
      if (score > best_score) {
        best_score = score;
        best_index = static_cast<std::int64_t>(i);
      }
    }
    return best_index < 0 ? n : static_cast<std::size_t>(best_index);
  }
#endif
  std::size_t best_index = n;
  double best_score = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double v = std::max(lo[i] - xb[i], xb[i] - up[i]);
    if (v <= tol) continue;
    const double score = v * v / weights[i];
    if (score > best_score) {
      best_score = score;
      best_index = i;
    }
  }
  return best_index;
}

/// acc[i] += |x[i]| — the zonotope to_box / reduce accumulation.
inline void accumulate_abs(const double* x, double* acc, std::size_t n) {
#if defined(__AVX2__)
  if (!force_scalar() && n >= 4) {
    // Clear the sign bit: andpd with ~(1<<63) in every lane.
    const __m256d mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4) {
      const __m256d vx = _mm256_and_pd(_mm256_loadu_pd(x + i), mask);
      _mm256_storeu_pd(acc + i, _mm256_add_pd(_mm256_loadu_pd(acc + i), vx));
    }
    for (; i < n; ++i) acc[i] += std::fabs(x[i]);
    return;
  }
#endif
  for (std::size_t i = 0; i < n; ++i) acc[i] += std::fabs(x[i]);
}

/// sum_i |x[i]| — generator mass for zonotope order reduction.
inline double sum_abs(const double* x, std::size_t n) {
#if defined(__AVX2__)
  if (!force_scalar() && n >= 4) {
    const __m256d mask = _mm256_castsi256_pd(_mm256_set1_epi64x(0x7fffffffffffffffLL));
    __m256d acc = _mm256_setzero_pd();
    std::size_t i = 0;
    for (; i + 4 <= n; i += 4)
      acc = _mm256_add_pd(acc, _mm256_and_pd(_mm256_loadu_pd(x + i), mask));
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    double sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; i < n; ++i) sum += std::fabs(x[i]);
    return sum;
  }
#endif
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += std::fabs(x[i]);
  return sum;
}

// ---------------------------------------------------------------------------
// Sparse kernels (SoA index/value pairs, int32 indices)
// ---------------------------------------------------------------------------

/// sum_k val[k] * x[idx[k]] — the FTRAN/BTRAN gather-dot. AVX2 has a
/// vector gather (vpgatherdpd) but no scatter, which is why the basis LU
/// routes its *reads* through this kernel and keeps writes scalar.
inline double sparse_gather_dot(const std::int32_t* idx, const double* val,
                                const double* x, std::size_t n) {
#if defined(__AVX2__) && defined(__FMA__)
  if (!force_scalar() && n >= 8) {
    __m256d acc = _mm256_setzero_pd();
    // All-lanes mask + zeroed source: same codegen as the plain gather
    // but avoids GCC's maybe-uninitialized false positive on
    // _mm256_undefined_pd inside _mm256_i32gather_pd.
    const __m256d ones = _mm256_castsi256_pd(_mm256_set1_epi64x(-1));
    std::size_t k = 0;
    for (; k + 4 <= n; k += 4) {
      const __m128i vi = _mm_loadu_si128(reinterpret_cast<const __m128i*>(idx + k));
      const __m256d vx =
          _mm256_mask_i32gather_pd(_mm256_setzero_pd(), x, vi, ones, 8);
      acc = _mm256_fmadd_pd(_mm256_loadu_pd(val + k), vx, acc);
    }
    alignas(32) double lanes[4];
    _mm256_store_pd(lanes, acc);
    double sum = lanes[0] + lanes[1] + lanes[2] + lanes[3];
    for (; k < n; ++k) sum += val[k] * x[idx[k]];
    return sum;
  }
#endif
  double sum = 0.0;
  for (std::size_t k = 0; k < n; ++k) sum += val[k] * x[idx[k]];
  return sum;
}

/// x[idx[k]] -= scale * val[k] — the scatter half of an eta / L-column
/// application. AVX2 has no scatter instruction, so this stays scalar by
/// design; the SoA layout still buys contiguous streaming of idx/val.
inline void sparse_scatter_axpy(const std::int32_t* idx, const double* val,
                                double scale, double* x, std::size_t n) {
  for (std::size_t k = 0; k < n; ++k) x[idx[k]] -= scale * val[k];
}

}  // namespace dpv::simd
