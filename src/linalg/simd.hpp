/// \file simd.hpp
/// \brief Width-agnostic SIMD pack abstraction for the sweep hot paths.
///
/// Kernels in this code base are written once against a `Pack` concept —
/// a fixed-width bundle of doubles with element-wise arithmetic, masked
/// selects and contiguous loads/stores — and instantiated twice:
///
///   - `ScalarPack` (width 1): plain double arithmetic.  This is the
///     differential twin every kernel is tested against, and the only
///     pack on toolchains without `std::experimental::simd`.
///   - `NativePack`: `std::experimental::simd<double>` at the hardware's
///     native width (8 on AVX-512, 4 on AVX2, 2 on SSE2).
///
/// Both wide packs are `SimdPack<Abi>`; `Pack4` is the same template at
/// exactly four doubles (the sparse LU's frequency batch, whose complex
/// slot then fills one 64-byte line).
///
/// `DefaultPack` is what the hot paths use.  It resolves to `NativePack`
/// when the build enables SIMD (CMake option `FTDIAG_SIMD`, default ON,
/// which defines `FTDIAG_SIMD_ENABLED=1`) *and* the toolchain ships the
/// Parallelism-TS header; otherwise it is `ScalarPack` — so every kernel
/// always compiles and the two configurations differ only in width.
/// On top of the build knob, `simd::enabled()` reads the `FTDIAG_SIMD`
/// environment variable once per process ("0"/"off" forces the scalar
/// instantiation at runtime) so a mis-vectorization can be ruled out in
/// the field without a rebuild.
///
/// Both packs run the same formula per lane, so a wide kernel and its
/// scalar twin agree bit-for-bit unless the optimizer contracts a
/// multiply-add differently between the two instantiations — the
/// differential suite in tests/test_simd.cpp pins the contract at
/// <= 1e-12 relative (and empirically exact).  A kernel that spells every
/// rounding out through `fma` leaves the optimizer nothing to contract,
/// and is bit-exact to its twin.  See src/linalg/README.md ("SIMD kernel
/// contract") for alignment and remainder rules.
#pragma once

#include <cmath>
#include <complex>
#include <cstddef>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#ifndef FTDIAG_SIMD_ENABLED
#define FTDIAG_SIMD_ENABLED 1
#endif

#if FTDIAG_SIMD_ENABLED && defined(__GNUC__) && defined(__has_include)
#if __has_include(<experimental/simd>)
#include <experimental/simd>
#define FTDIAG_SIMD_NATIVE 1
#endif
#endif

#if FTDIAG_SIMD_NATIVE && (defined(__AVX512F__) || defined(__FMA__))
#include <immintrin.h>
#endif

#ifndef FTDIAG_SIMD_NATIVE
#define FTDIAG_SIMD_NATIVE 0
#endif

namespace ftdiag::linalg::simd {

/// Alignment of every SoA plane the SIMD kernels touch.  64 bytes covers
/// the widest vector unit in the wild (AVX-512) and a full cache line.
inline constexpr std::size_t kAlignment = 64;

/// Minimal aligned allocator so SoA planes can live in std::vector.
template <typename T>
struct AlignedAllocator {
  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t{kAlignment}));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t{kAlignment});
  }

  template <typename U>
  bool operator==(const AlignedAllocator<U>&) const noexcept {
    return true;
  }
};

/// A 64-byte-aligned plane of doubles: the unit of SoA storage.
using AlignedVector = std::vector<double, AlignedAllocator<double>>;

struct AlignedDelete {
  void operator()(double* p) const noexcept {
    ::operator delete[](p, std::align_val_t{kAlignment});
  }
};
/// A 64-byte-aligned array of doubles left uninitialized, so its pages
/// are first touched by whoever first writes them.
using AlignedBuffer = std::unique_ptr<double[], AlignedDelete>;
[[nodiscard]] inline AlignedBuffer aligned_buffer(std::size_t n) {
  return AlignedBuffer(static_cast<double*>(
      ::operator new[](n * sizeof(double), std::align_val_t{kAlignment})));
}

// ----------------------------------------------------------- ScalarPack

/// Width-1 pack: one double, plain arithmetic.  Every operation mirrors
/// the wide pack exactly, so kernels instantiated on ScalarPack *are* the
/// scalar reference implementation.
struct ScalarPack {
  static constexpr std::size_t width = 1;

  double v = 0.0;

  struct Mask {
    bool m = false;
    [[nodiscard]] bool operator[](std::size_t) const { return m; }
    [[nodiscard]] friend Mask operator&&(Mask a, Mask b) {
      return {a.m && b.m};
    }
    [[nodiscard]] friend Mask operator||(Mask a, Mask b) {
      return {a.m || b.m};
    }
    [[nodiscard]] friend Mask operator!(Mask a) { return {!a.m}; }
  };

  [[nodiscard]] static ScalarPack broadcast(double x) { return {x}; }
  [[nodiscard]] static ScalarPack load(const double* p) { return {*p}; }
  void store(double* p) const { *p = v; }

  [[nodiscard]] double operator[](std::size_t) const { return v; }

  [[nodiscard]] friend ScalarPack operator+(ScalarPack a, ScalarPack b) {
    return {a.v + b.v};
  }
  [[nodiscard]] friend ScalarPack operator-(ScalarPack a, ScalarPack b) {
    return {a.v - b.v};
  }
  [[nodiscard]] friend ScalarPack operator*(ScalarPack a, ScalarPack b) {
    return {a.v * b.v};
  }
  [[nodiscard]] friend ScalarPack operator/(ScalarPack a, ScalarPack b) {
    return {a.v / b.v};
  }
  [[nodiscard]] friend ScalarPack operator-(ScalarPack a) { return {-a.v}; }

  [[nodiscard]] friend Mask operator<(ScalarPack a, ScalarPack b) {
    return {a.v < b.v};
  }
  [[nodiscard]] friend Mask operator<=(ScalarPack a, ScalarPack b) {
    return {a.v <= b.v};
  }
  [[nodiscard]] friend Mask operator>(ScalarPack a, ScalarPack b) {
    return {a.v > b.v};
  }
  [[nodiscard]] friend Mask operator==(ScalarPack a, ScalarPack b) {
    return {a.v == b.v};
  }
};

[[nodiscard]] inline ScalarPack sqrt(ScalarPack a) {
  return {std::sqrt(a.v)};
}
[[nodiscard]] inline ScalarPack min(ScalarPack a, ScalarPack b) {
  return {b.v < a.v ? b.v : a.v};
}
[[nodiscard]] inline ScalarPack max(ScalarPack a, ScalarPack b) {
  return {a.v < b.v ? b.v : a.v};
}
/// a * b + c, rounded once where the target has FMA and as the plain
/// expression (two roundings) otherwise — what GCC contracts the scalar
/// expression to either way, spelled out.
[[nodiscard]] inline ScalarPack fma(ScalarPack a, ScalarPack b, ScalarPack c) {
#if defined(__FMA__)
  return {std::fma(a.v, b.v, c.v)};
#else
  return {a.v * b.v + c.v};
#endif
}
[[nodiscard]] inline ScalarPack select(ScalarPack::Mask m, ScalarPack a,
                                       ScalarPack b) {
  return {m.m ? a.v : b.v};
}
[[nodiscard]] inline bool any_of(ScalarPack::Mask m) { return m.m; }
[[nodiscard]] inline bool all_of(ScalarPack::Mask m) { return m.m; }
[[nodiscard]] inline bool none_of(ScalarPack::Mask m) { return !m.m; }

// ------------------------------------------------------------ SimdPack

#if FTDIAG_SIMD_NATIVE

namespace stdx = std::experimental;

/// The lane mask of SimdPack<Abi>.
template <typename Abi>
struct SimdMask {
  typename stdx::simd<double, Abi>::mask_type m{};
  [[nodiscard]] bool operator[](std::size_t i) const { return m[i]; }
  [[nodiscard]] friend SimdMask operator&&(SimdMask a, SimdMask b) {
    return {a.m && b.m};
  }
  [[nodiscard]] friend SimdMask operator||(SimdMask a, SimdMask b) {
    return {a.m || b.m};
  }
  [[nodiscard]] friend SimdMask operator!(SimdMask a) { return {!a.m}; }
};

/// A pack over std::experimental::simd with ABI \p Abi.  Loads and stores
/// are element-aligned (any 8-byte boundary); kernels that want the full
/// kAlignment guarantee allocate through AlignedVector but none *require*
/// it for correctness.
template <typename Abi>
struct SimdPack {
  using Simd = stdx::simd<double, Abi>;
  using Mask = SimdMask<Abi>;
  static constexpr std::size_t width = Simd::size();

  Simd v{};

  [[nodiscard]] static SimdPack broadcast(double x) { return {Simd(x)}; }
  [[nodiscard]] static SimdPack load(const double* p) {
    return {Simd(p, stdx::element_aligned)};
  }
  void store(double* p) const { v.copy_to(p, stdx::element_aligned); }

  [[nodiscard]] double operator[](std::size_t i) const { return v[i]; }

  [[nodiscard]] friend SimdPack operator+(SimdPack a, SimdPack b) {
    return {a.v + b.v};
  }
  [[nodiscard]] friend SimdPack operator-(SimdPack a, SimdPack b) {
    return {a.v - b.v};
  }
  [[nodiscard]] friend SimdPack operator*(SimdPack a, SimdPack b) {
    return {a.v * b.v};
  }
  [[nodiscard]] friend SimdPack operator/(SimdPack a, SimdPack b) {
    return {a.v / b.v};
  }
  [[nodiscard]] friend SimdPack operator-(SimdPack a) { return {-a.v}; }

  [[nodiscard]] friend Mask operator<(SimdPack a, SimdPack b) {
    return {a.v < b.v};
  }
  [[nodiscard]] friend Mask operator<=(SimdPack a, SimdPack b) {
    return {a.v <= b.v};
  }
  [[nodiscard]] friend Mask operator>(SimdPack a, SimdPack b) {
    return {a.v > b.v};
  }
  [[nodiscard]] friend Mask operator==(SimdPack a, SimdPack b) {
    return {a.v == b.v};
  }
};

/// Hardware-width pack: 8 doubles on AVX-512, 4 on AVX2, 2 on SSE2.
using NativePack = SimdPack<stdx::simd_abi::native<double>>;

/// Exactly four doubles, whatever the hardware width: a complex pack's re
/// and im halves fill one 64-byte line.
using Pack4 = SimdPack<stdx::simd_abi::deduce_t<double, 4>>;

// The free helpers below are forced inline: GCC otherwise compiles some
// out of line (.constprop clones) and passes whole packs through the
// stack in the middle of pack loops.

template <typename Abi>
[[nodiscard, gnu::always_inline]] inline SimdPack<Abi> sqrt(SimdPack<Abi> a) {
#if defined(__AVX512F__)
  // GCC 12's stdx::sqrt on 8 doubles goes through _mm512_undefined_pd,
  // whose self-initialisation trips -Wmaybe-uninitialized.  The zero-mask
  // form is the same correctly rounded sqrt.
  if constexpr (SimdPack<Abi>::width == 8) {
    return {typename SimdPack<Abi>::Simd(
        _mm512_maskz_sqrt_pd(0xFF, static_cast<__m512d>(a.v)))};
  } else {
    return {stdx::sqrt(a.v)};
  }
#else
  return {stdx::sqrt(a.v)};
#endif
}
/// a * b + c per lane, rounded once where the target has FMA and as the
/// plain expression (two roundings) otherwise — what the scalar code
/// compiles to either way.  stdx::fma would call the libm fma per element.
template <typename Abi>
[[nodiscard, gnu::always_inline]] inline SimdPack<Abi> fma(SimdPack<Abi> a,
                                                           SimdPack<Abi> b,
                                                           SimdPack<Abi> c) {
  using Simd = typename SimdPack<Abi>::Simd;
#if defined(__FMA__)
  if constexpr (SimdPack<Abi>::width == 2) {
    return {Simd(_mm_fmadd_pd(static_cast<__m128d>(a.v),
                              static_cast<__m128d>(b.v),
                              static_cast<__m128d>(c.v)))};
  } else if constexpr (SimdPack<Abi>::width == 4) {
    return {Simd(_mm256_fmadd_pd(static_cast<__m256d>(a.v),
                                 static_cast<__m256d>(b.v),
                                 static_cast<__m256d>(c.v)))};
  } else {
    static_assert(SimdPack<Abi>::width == 8, "no FMA form for this width");
    return {Simd(_mm512_fmadd_pd(static_cast<__m512d>(a.v),
                                 static_cast<__m512d>(b.v),
                                 static_cast<__m512d>(c.v)))};
  }
#else
  return {a.v * b.v + c.v};
#endif
}
template <typename Abi>
[[nodiscard, gnu::always_inline]] inline SimdPack<Abi> min(SimdPack<Abi> a,
                                                           SimdPack<Abi> b) {
  return {stdx::min(a.v, b.v)};
}
template <typename Abi>
[[nodiscard, gnu::always_inline]] inline SimdPack<Abi> max(SimdPack<Abi> a,
                                                           SimdPack<Abi> b) {
  return {stdx::max(a.v, b.v)};
}
template <typename Abi>
[[nodiscard, gnu::always_inline]] inline SimdPack<Abi> select(
    SimdMask<Abi> m, SimdPack<Abi> a, SimdPack<Abi> b) {
  SimdPack<Abi> out = b;
  stdx::where(m.m, out.v) = a.v;
  return out;
}
template <typename Abi>
[[nodiscard, gnu::always_inline]] inline bool any_of(SimdMask<Abi> m) {
  return stdx::any_of(m.m);
}
template <typename Abi>
[[nodiscard, gnu::always_inline]] inline bool all_of(SimdMask<Abi> m) {
  return stdx::all_of(m.m);
}
template <typename Abi>
[[nodiscard, gnu::always_inline]] inline bool none_of(SimdMask<Abi> m) {
  return stdx::none_of(m.m);
}

using DefaultPack = NativePack;

#else

using DefaultPack = ScalarPack;

#endif  // FTDIAG_SIMD_NATIVE

/// True when the wide pack is compiled in (build-time view of the knob).
inline constexpr bool kSimdCompiled = FTDIAG_SIMD_NATIVE != 0;

/// The width hot paths run at when enabled() is true.
inline constexpr std::size_t kDefaultWidth = DefaultPack::width;

/// Finiteness per lane without a libm call: x - x is 0 for every finite
/// x and NaN for ±inf/NaN (no fast-math in this code base, so the
/// compiler cannot fold it away).
template <typename P>
[[nodiscard]] inline typename P::Mask finite_mask(P x) {
  return (x - x) == P::broadcast(0.0);
}

/// Runtime view of the FTDIAG_SIMD knob: false when the build is scalar
/// or the FTDIAG_SIMD environment variable is "0"/"off"/"false".  Hot
/// paths branch on this once per call and run the ScalarPack
/// instantiation when disabled — same formulas, width 1.
[[nodiscard]] inline bool enabled() {
  if constexpr (!kSimdCompiled) return false;
  static const bool on = [] {
    const char* env = std::getenv("FTDIAG_SIMD");
    if (env == nullptr) return true;
    const std::string value(env);
    return !(value == "0" || value == "off" || value == "OFF" ||
             value == "false");
  }();
  return on;
}

// ---------------------------------------------------------- complex pack

/// A pack of complex numbers as split re/im planes — the SoA form every
/// kernel uses.  Multiplication is the textbook 4-mul formula and
/// division the unscaled conjugate formula z/w = z*conj(w)/|w|^2: both
/// match sherman_morrison_sweep's scalar arithmetic, and the |w|^2
/// denominator overflows only beyond ~1e154 (MNA magnitudes are far
/// smaller; the batched LU refuses pivots long before that).
template <typename P>
struct CPack {
  P re{}, im{};

  [[nodiscard]] static CPack broadcast(std::complex<double> z) {
    return {P::broadcast(z.real()), P::broadcast(z.imag())};
  }
  [[nodiscard]] static CPack load(const double* re_p, const double* im_p) {
    return {P::load(re_p), P::load(im_p)};
  }
  void store(double* re_p, double* im_p) const {
    re.store(re_p);
    im.store(im_p);
  }

  [[nodiscard]] std::complex<double> lane(std::size_t i) const {
    return {re[i], im[i]};
  }

  [[nodiscard]] friend CPack operator+(CPack a, CPack b) {
    return {a.re + b.re, a.im + b.im};
  }
  [[nodiscard]] friend CPack operator-(CPack a, CPack b) {
    return {a.re - b.re, a.im - b.im};
  }
  [[nodiscard]] friend CPack operator*(CPack a, CPack b) {
    return {a.re * b.re - a.im * b.im, a.re * b.im + a.im * b.re};
  }
  [[nodiscard]] friend CPack operator/(CPack a, CPack b) {
    const P denom = b.re * b.re + b.im * b.im;
    const P inv = P::broadcast(1.0) / denom;
    return {(a.re * b.re + a.im * b.im) * inv,
            (a.im * b.re - a.re * b.im) * inv};
  }

  /// |z|^2 per lane.
  [[nodiscard]] P norm() const { return re * re + im * im; }
};

}  // namespace ftdiag::linalg::simd
