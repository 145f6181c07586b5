// Runtime kernel dispatch for the SIMD scoring kernels.
//
// The kernels (hit-scan prefilter, banded gapped x-drop extension, striped
// Smith-Waterman) come in scalar, SSE4.2 and AVX2 variants that are
// bit-identical by construction; which one runs is a pure
// execution-strategy choice. The path is picked once at startup from CPUID
// (detect_kernel), can be pinned with --kernel= (set_default_kernel), and
// is recorded in the stats-v1 JSON so every benchmark result names the
// code path that produced it.
//
// The ISA-specific translation units are compiled with per-file -msse4.2 /
// -mavx2 flags (see src/simd/CMakeLists.txt) and are only ever entered
// after the corresponding CPUID feature check, so the remaining objects
// stay runnable on any x86-64 — and on non-x86 targets the subsystem
// degrades to scalar-only at compile time.
#pragma once

#include <string>

namespace mublastp::simd {

/// Which implementation of the scoring kernels executes. Values are ordered
/// by capability; dispatch picks the highest supported one.
enum class KernelPath : int {
  kScalar = 0,  ///< portable reference kernels
  kSse42,       ///< 128-bit SSE4.2 kernels
  kAvx2,        ///< 256-bit AVX2 kernels
};

/// True iff this machine can execute `path` (CPUID at first call; the
/// scalar path is always supported).
bool kernel_supported(KernelPath path);

/// The best path this machine supports (scalar on non-x86 builds).
KernelPath detect_kernel();

/// The process-wide default, used by engines constructed without an
/// explicit kernel. Starts as detect_kernel(); set_default_kernel pins it
/// (the --kernel= flag). Setting an unsupported path throws.
KernelPath default_kernel();
void set_default_kernel(KernelPath path);

/// Stable lowercase name ("scalar", "sse42", "avx2") — the value recorded
/// in stats JSON and accepted by parse_kernel.
const char* kernel_name(KernelPath path);

/// Parses a --kernel= value: "scalar", "sse42", "avx2" or "auto"
/// (detect_kernel()). Throws mublastp::Error on anything else.
KernelPath parse_kernel(const std::string& name);

}  // namespace mublastp::simd
