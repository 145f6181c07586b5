// The kernel paths the SIMD tests run on. The vector kernels exist only
// where the CPU supports them, so a test that loops over vector_kernels()
// alone calls GTEST_SKIP() when the list is empty: a scalar-only host
// then reports it skipped instead of passing it on zero kernels.
#pragma once

#include <vector>

#include "simd/dispatch.hpp"

namespace mublastp {

/// The vector kernels this CPU runs: AVX2, or none (a CPU without AVX2, or
/// a non-x86 build).
inline std::vector<simd::KernelPath> vector_kernels() {
  if (!simd::kernel_supported(simd::KernelPath::kAvx2)) return {};
  return {simd::KernelPath::kAvx2};
}

/// The scalar reference followed by vector_kernels(), for properties that
/// must hold on every path.
inline std::vector<simd::KernelPath> all_kernels() {
  std::vector<simd::KernelPath> paths{simd::KernelPath::kScalar};
  for (const simd::KernelPath p : vector_kernels()) paths.push_back(p);
  return paths;
}

}  // namespace mublastp
