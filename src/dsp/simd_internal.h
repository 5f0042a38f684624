// Internal wiring between the SIMD dispatcher and the per-arch kernel
// translation units. Not part of the public dsp API.
#pragma once

#include "dsp/simd.h"

namespace aqua::dsp::simd {

// Defined in simd_avx2.cpp / simd_neon.cpp when CMake
// compiles them in (the TU carries the per-arch compile flags; nothing
// outside it is built with anything beyond the baseline ISA).
#if defined(AQUA_SIMD_HAVE_AVX2)
const Kernels* avx2_kernels();
#endif
#if defined(AQUA_SIMD_HAVE_NEON)
const Kernels* neon_kernels();
#endif

}  // namespace aqua::dsp::simd
