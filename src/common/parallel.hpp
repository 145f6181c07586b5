// The one task runner behind every parallel loop: the engines' batch loops
// and the per-block index build. Header-only; the libraries that include it
// link OpenMP themselves.
#pragma once

#include <atomic>
#include <cstddef>
#include <exception>

namespace mublastp {

/// Runs body(t) for every t in [0, n) as one OpenMP dynamic loop on
/// `threads` threads. An exception must not escape an OpenMP region (that
/// terminates the process), so the first one is kept and returned, and the
/// tasks not yet started are skipped. Callers rethrow it, or (the muBLASTP
/// engine's degraded mode) quarantine the block that raised it.
template <typename Body>
std::exception_ptr parallel_tasks(int threads, std::size_t n,
                                  const Body& body) {
  std::exception_ptr error = nullptr;
  std::atomic<bool> failed{false};
#pragma omp parallel for schedule(dynamic) num_threads(threads)
  for (std::size_t t = 0; t < n; ++t) {
    if (failed.load(std::memory_order_relaxed)) continue;
    try {
      body(t);
    } catch (...) {
#pragma omp critical(mublastp_task_error)
      {
        if (error == nullptr) error = std::current_exception();
      }
      failed.store(true, std::memory_order_relaxed);
    }
  }
  return error;
}

}  // namespace mublastp
