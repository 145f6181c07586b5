#include "simd/dispatch.hpp"

#include <atomic>

#include "common/error.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define MUBLASTP_SIMD_X86 1
#endif

namespace mublastp::simd {
namespace {

bool cpu_supports(KernelPath path) {
  switch (path) {
    case KernelPath::kScalar:
      return true;
    case KernelPath::kSse42:
#ifdef MUBLASTP_SIMD_X86
      return __builtin_cpu_supports("sse4.2") != 0;
#else
      return false;
#endif
    case KernelPath::kAvx2:
#ifdef MUBLASTP_SIMD_X86
      return __builtin_cpu_supports("avx2") != 0;
#else
      return false;
#endif
  }
  return false;
}

std::atomic<KernelPath>& default_slot() {
  static std::atomic<KernelPath> slot{detect_kernel()};
  return slot;
}

}  // namespace

bool kernel_supported(KernelPath path) { return cpu_supports(path); }

KernelPath detect_kernel() {
  if (cpu_supports(KernelPath::kAvx2)) return KernelPath::kAvx2;
  if (cpu_supports(KernelPath::kSse42)) return KernelPath::kSse42;
  return KernelPath::kScalar;
}

KernelPath default_kernel() { return default_slot().load(); }

void set_default_kernel(KernelPath path) {
  MUBLASTP_CHECK(kernel_supported(path),
                 "requested SIMD kernel is not supported on this CPU");
  default_slot().store(path);
}

const char* kernel_name(KernelPath path) {
  switch (path) {
    case KernelPath::kScalar:
      return "scalar";
    case KernelPath::kSse42:
      return "sse42";
    case KernelPath::kAvx2:
      return "avx2";
  }
  return "unknown";
}

KernelPath parse_kernel(const std::string& name) {
  if (name == "auto") return detect_kernel();
  if (name == "scalar") return KernelPath::kScalar;
  if (name == "sse42") return KernelPath::kSse42;
  if (name == "avx2") return KernelPath::kAvx2;
  throw Error("unknown kernel '" + name +
              "' (expected scalar, sse42, avx2 or auto)");
}

}  // namespace mublastp::simd
