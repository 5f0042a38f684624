// Reusable scratch-buffer arena for the zero-allocation DSP core.
//
// Every hot-path primitive (FFT transforms, overlap-save filtering,
// correlation, the modem decode chain) takes a Workspace& and leases its
// scratch buffers from it instead of constructing fresh std::vectors. A
// lease keeps the vector's capacity when it returns to the pool, so after
// one warm-up pass a steady-state pipeline performs no heap allocation in
// its inner loops.
//
// The arena pools four element types: double / cplx for the double-precision
// estimation tail and float / cplxf for the single-precision receive front
// end. The generic acquire<V>/release<V>/Scratch<V> interface picks the pool
// by element type so code templated on the sample type leases without
// branching; ScratchReal/ScratchCplx are aliases kept for the existing
// double call sites.
//
// Threading contract: a Workspace is single-threaded state, and there is one
// ownership rule. Each long-lived owner (core::Modem, core::LinkSession)
// binds exactly one arena by reference when it is built, and every function
// below it takes a Workspace& — there is no nullable arena and no arena-less
// decode overload. SweepRunner workers and ShardPool shards each own one
// arena and hand it down. thread_local_workspace() is one arena per thread;
// it serves only as the owners' default constructor argument and inside the
// one-shot helpers that build a freshly allocated vector (fft, convolve,
// Ofdm::modulate, DataModem::encode and its training-template cache).
// Buffer contents are always fully overwritten by the primitive that leases
// them, so results never depend on what a previous lease left behind — that
// is what keeps sweep output bit-identical for any thread count.
#pragma once

#include <cstddef>
#include <span>
#include <type_traits>
#include <utility>
#include <vector>

#include "dsp/types.h"

namespace aqua::dsp {

/// Pool of reusable scratch vectors (double, float, cplx, cplxf).
/// Lease via Scratch<V> below (RAII), or acquire<V>/release<V> directly for
/// members.
class Workspace {
 public:
  Workspace() = default;
  Workspace(const Workspace&) = delete;
  Workspace& operator=(const Workspace&) = delete;

  /// Takes a buffer from the pool (or a fresh one) resized to `n`.
  /// Contents are unspecified; callers must overwrite what they read.
  template <typename V>
  std::vector<V> acquire(std::size_t n) {
    std::vector<V> buf = pop(pool<V>());
    buf.resize(n);
    return buf;
  }

  /// Returns a buffer (keeping its capacity) for the next acquire.
  template <typename V>
  void release(std::vector<V>&& buf) {
    pool<V>().push_back(std::move(buf));
  }

  /// Pool sizes (buffers currently at rest) — used by tests.
  std::size_t pooled_real() const { return real_pool_.size(); }
  std::size_t pooled_cplx() const { return cplx_pool_.size(); }
  std::size_t pooled_realf() const { return realf_pool_.size(); }
  std::size_t pooled_cplxf() const { return cplxf_pool_.size(); }

 private:
  template <typename V>
  std::vector<std::vector<V>>& pool() {
    if constexpr (std::is_same_v<V, double>) {
      return real_pool_;
    } else if constexpr (std::is_same_v<V, float>) {
      return realf_pool_;
    } else if constexpr (std::is_same_v<V, cplx>) {
      return cplx_pool_;
    } else {
      static_assert(std::is_same_v<V, cplxf>,
                    "Workspace pools double/float/cplx/cplxf only");
      return cplxf_pool_;
    }
  }

  template <typename V>
  static V pop(std::vector<V>& pool) {
    if (pool.empty()) return V{};
    V buf = std::move(pool.back());
    pool.pop_back();
    return buf;
  }

  std::vector<std::vector<double>> real_pool_;
  std::vector<std::vector<float>> realf_pool_;
  std::vector<std::vector<cplx>> cplx_pool_;
  std::vector<std::vector<cplxf>> cplxf_pool_;
};

/// RAII lease of a scratch vector of `V` sized to `n`.
template <typename V>
class Scratch {
 public:
  Scratch(Workspace& ws, std::size_t n) : ws_(ws), buf_(ws.acquire<V>(n)) {}
  ~Scratch() { ws_.release(std::move(buf_)); }
  Scratch(const Scratch&) = delete;
  Scratch& operator=(const Scratch&) = delete;

  std::vector<V>& operator*() { return buf_; }
  std::vector<V>* operator->() { return &buf_; }
  std::span<V> span() { return buf_; }

 private:
  Workspace& ws_;
  std::vector<V> buf_;
};

/// Aliases kept for the existing double-precision call sites.
using ScratchReal = Scratch<double>;
using ScratchCplx = Scratch<cplx>;
using ScratchRealF = Scratch<float>;
using ScratchCplxF = Scratch<cplxf>;

/// One arena per thread: the default arena of core::Modem and
/// core::LinkSession, and the scratch of the one-shot helpers that return a
/// freshly allocated vector (fft, convolve, Ofdm::modulate, ...).
Workspace& thread_local_workspace();

}  // namespace aqua::dsp
