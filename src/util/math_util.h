// Small integer math helpers used throughout the PDM layer.
#pragma once

#include <bit>
#include <cmath>
#include <string>

#include "util/common.h"

namespace pdm {

/// Ceiling division for unsigned integers.
constexpr u64 ceil_div(u64 a, u64 b) { return (a + b - 1) / b; }

/// Rounds `a` up to the next multiple of `b`.
constexpr u64 round_up(u64 a, u64 b) { return ceil_div(a, b) * b; }

/// Rounds `a` down to a multiple of `b`.
constexpr u64 round_down(u64 a, u64 b) { return (a / b) * b; }

/// True if `x` is a power of two (and nonzero).
constexpr bool is_pow2(u64 x) { return x != 0 && (x & (x - 1)) == 0; }

/// floor(log2(x)); requires x > 0.
constexpr u32 ilog2(u64 x) {
  return static_cast<u32>(63 - std::countl_zero(x));
}

/// ceil(log2(x)); requires x > 0.
constexpr u32 ilog2_ceil(u64 x) {
  return x <= 1 ? 0 : static_cast<u32>(64 - std::countl_zero(x - 1));
}

/// Exact integer square root (floor).
constexpr u64 isqrt(u64 x) {
  if (x < 2) return x;
  u64 r = static_cast<u64>(std::sqrt(static_cast<double>(x)));
  while (r * r > x) --r;
  while ((r + 1) * (r + 1) <= x) ++r;
  return r;
}

/// Throws pdm::Error unless the w.h.p. exponent alpha is finite and > 0.
/// A NaN alpha would reach every capacity bound (and u64 casts of NaN are
/// undefined) and break the strict weak ordering of plan-cache keys.
inline void check_alpha(double alpha) {
  PDM_CHECK(std::isfinite(alpha) && alpha > 0,
            "alpha must be finite and > 0, got " + std::to_string(alpha));
}

/// The paper's log factor lambda(M, alpha) = sqrt((alpha+2) ln M + 2).
/// Used by every "expected" capacity bound (Theorems 5.1, 6.1, 6.3).
inline double lambda_factor(u64 m, double alpha) {
  check_alpha(alpha);
  return std::sqrt((alpha + 2.0) * std::log(static_cast<double>(m)) + 2.0);
}

/// Largest multiple of `b` that is <= a (and >= b).
constexpr u64 floor_multiple(u64 a, u64 b) {
  u64 r = round_down(a, b);
  return r == 0 ? b : r;
}

}  // namespace pdm
