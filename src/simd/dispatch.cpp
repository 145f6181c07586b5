#include "simd/dispatch.hpp"

#include "common/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define MUBLASTP_SIMD_X86 1
#endif

namespace mublastp::simd {

bool kernel_supported(KernelPath path) {
  switch (path) {
    case KernelPath::kScalar:
      return true;
    case KernelPath::kAvx2:
#ifdef MUBLASTP_SIMD_X86
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

KernelPath default_kernel() {
  static const KernelPath best = kernel_supported(KernelPath::kAvx2)
                                     ? KernelPath::kAvx2
                                     : KernelPath::kScalar;
  return best;
}

const char* kernel_name(KernelPath path) {
  switch (path) {
    case KernelPath::kScalar:
      return "scalar";
    case KernelPath::kAvx2:
      return "avx2";
  }
  return "unknown";
}

KernelPath parse_kernel(const std::string& name) {
  if (name == "auto") return default_kernel();
  if (name == "scalar") return KernelPath::kScalar;
  if (name == "avx2") {
    if (!kernel_supported(KernelPath::kAvx2)) {
      throw Error("kernel 'avx2' is not supported on this CPU");
    }
    return KernelPath::kAvx2;
  }
  throw Error("unknown kernel '" + name + "' (expected auto, scalar or avx2)");
}

}  // namespace mublastp::simd
