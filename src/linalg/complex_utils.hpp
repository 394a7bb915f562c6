/// \file complex_utils.hpp
/// \brief Complex-number helpers shared by AC analysis and the sampler.
#pragma once

#include <cmath>
#include <complex>
#include <numbers>

namespace ftdiag::linalg {

using Complex = std::complex<double>;

/// Magnitude in decibels: 20*log10(|z|).  |z| == 0 maps to -inf.
[[nodiscard]] inline double to_db(const Complex& z) {
  return 20.0 * std::log10(std::abs(z));
}

/// Magnitude in decibels of a real gain.
[[nodiscard]] inline double to_db(double magnitude) {
  return 20.0 * std::log10(std::fabs(magnitude));
}

/// Phase in degrees in (-180, 180].
[[nodiscard]] inline double phase_deg(const Complex& z) {
  return std::arg(z) * 180.0 / std::numbers::pi;
}

/// Laplace variable for a physical frequency in hertz: s = j*2*pi*f.
[[nodiscard]] inline Complex s_of_hz(double hz) {
  return Complex(0.0, 2.0 * std::numbers::pi * hz);
}

}  // namespace ftdiag::linalg
