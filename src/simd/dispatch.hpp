// Runtime kernel dispatch for the SIMD scoring kernels.
//
// The kernels (hit-scan prefilter, banded gapped x-drop extension, striped
// Smith-Waterman) come in a scalar reference and an AVX2 variant that are
// bit-identical by construction; which one runs is a pure
// execution-strategy choice. Engines take the path as an option (the
// tools' --kernel= flag), default to the CPUID choice, and record it in
// the stats-v1 JSON so every benchmark result names the code path that
// produced it.
//
// The AVX2 translation unit is compiled with a per-file -mavx2 flag (see
// src/simd/CMakeLists.txt) and is only ever entered after the CPUID
// feature check, so the remaining objects stay runnable on any x86-64 —
// and on non-x86 targets the subsystem degrades to scalar-only at compile
// time.
#pragma once

#include <string>

namespace mublastp::simd {

/// Which implementation of the scoring kernels executes. kAvx2 keeps the
/// value it had when a 128-bit path sat between the two.
enum class KernelPath : int {
  kScalar = 0,  ///< portable reference kernels
  kAvx2 = 2,    ///< 256-bit AVX2 kernels
};

/// True iff this machine can execute `path` (the scalar path is always
/// supported).
bool kernel_supported(KernelPath path);

/// The path engines use when none is given: AVX2 where the CPU has it,
/// else scalar. CPUID is read once, at the first call.
KernelPath default_kernel();

/// Stable lowercase name ("scalar", "avx2") — the value recorded in stats
/// JSON and accepted by parse_kernel.
const char* kernel_name(KernelPath path);

/// Parses a --kernel= value: "scalar", "avx2" or "auto" (default_kernel()).
/// Throws mublastp::Error on any other name, and on a path this CPU cannot
/// run.
KernelPath parse_kernel(const std::string& name);

}  // namespace mublastp::simd
