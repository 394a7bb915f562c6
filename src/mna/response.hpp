/// \file response.hpp
/// \brief Frequency-response container with interpolation helpers.
///
/// An AcResponse is what fault simulation stores per circuit: the complex
/// transfer value at each grid frequency.  The spectral sampler evaluates
/// responses at arbitrary (GA-chosen) frequencies via log-frequency
/// interpolation, so the dictionary does not need to be rebuilt per GA step.
#pragma once

#include <cstddef>
#include <memory>
#include <span>
#include <vector>

#include "linalg/complex_utils.hpp"
#include "linalg/simd.hpp"

namespace ftdiag::mna {

using linalg::Complex;

/// True when every frequency is finite and the grid never descends.
/// ResponsePlanes asserts the order; parsers of untrusted input check
/// this first and throw ParseError instead.
[[nodiscard]] bool is_valid_grid(std::span<const double> frequencies_hz);

/// One response sample in polar form, the operands of interpolate_polar:
/// |v|, log |v| (0 when |v| is 0, and then never read) and arg v.
struct PolarSample {
  double mag = 0.0;
  double log_mag = 0.0;
  double phase = 0.0;
};

/// \p v in polar form.
[[nodiscard]] PolarSample polar_sample(Complex v);

/// The value a fraction \p t of the way from sample \p a to sample \p b:
/// magnitude geometric when both are positive (a straight line on a Bode
/// plot) and linear otherwise, phase linear along the shorter arc.  The
/// one copy of the formula: AcResponse::interpolate and the GA's
/// precomputed column tables both call it, so they agree to the bit.
[[nodiscard]] Complex interpolate_polar(const PolarSample& a,
                                        const PolarSample& b, double t);

/// Complex responses on one shared ascending grid, stored once as
/// 64-byte-aligned row-major re/im planes: row r is [r * grid(),
/// (r + 1) * grid()) of each.  The SIMD sweep writes this layout and the
/// scoring kernels read it.  Producers fill a block, then publish it as
/// std::shared_ptr<const ResponsePlanes>; AcResponse is a row of it.
struct ResponsePlanes {
  /// A zero-filled block of \p rows responses on \p frequencies_hz, which
  /// must ascend (asserted).
  ResponsePlanes(std::vector<double> frequencies_hz, std::size_t rows);

  std::vector<double> frequencies;      ///< the shared grid, ascending
  std::size_t rows = 0;
  linalg::simd::AlignedVector re, im;   ///< rows * grid()

  [[nodiscard]] std::size_t grid() const { return frequencies.size(); }
  [[nodiscard]] double* row_re(std::size_t r) { return re.data() + r * grid(); }
  [[nodiscard]] double* row_im(std::size_t r) { return im.data() + r * grid(); }
};

/// Complex response samples over an ascending frequency grid: one
/// immutable row of a shared ResponsePlanes block.  A standalone response
/// is a one-row block, a copy shares the block (a reference-count bump),
/// and a response keeps its block alive, so a dictionary entry's response
/// may outlive the dictionary.
class AcResponse {
public:
  AcResponse() = default;

  /// A one-row block.  Asserts equal lengths and an ascending grid.
  AcResponse(std::vector<double> frequencies_hz,
             const std::vector<Complex>& values);

  /// Row \p row of \p block.
  AcResponse(std::shared_ptr<const ResponsePlanes> block, std::size_t row);

  [[nodiscard]] std::size_t size() const { return frequencies().size(); }
  [[nodiscard]] bool empty() const { return size() == 0; }

  [[nodiscard]] const std::vector<double>& frequencies() const {
    return block_ ? block_->frequencies : kNoGrid;
  }

  /// The row's re/im planes (the rows of a block follow each other with
  /// no padding).
  [[nodiscard]] std::span<const double> reals() const { return {re_, size()}; }
  [[nodiscard]] std::span<const double> imags() const { return {im_, size()}; }

  [[nodiscard]] double frequency(std::size_t i) const {
    return block_->frequencies[i];
  }
  [[nodiscard]] Complex value(std::size_t i) const { return {re_[i], im_[i]}; }

  /// The samples interleaved, as a copy.
  [[nodiscard]] std::vector<Complex> values() const;

  /// The block this response is a row of (null when empty).
  [[nodiscard]] const std::shared_ptr<const ResponsePlanes>& block() const {
    return block_;
  }

  /// Linear magnitude at grid index i.
  [[nodiscard]] double magnitude(std::size_t i) const;

  /// Magnitude in dB at grid index i.
  [[nodiscard]] double magnitude_db(std::size_t i) const;

  /// Phase in degrees at grid index i.
  [[nodiscard]] double phase_deg(std::size_t i) const;

  /// Where an arbitrary frequency falls on a response grid: the bracketing
  /// indices and the log-frequency interpolation parameter.  lo == hi
  /// marks an exact grid hit or an out-of-band clamp.  Responses sharing
  /// one grid (every dictionary entry) can locate once and interpolate
  /// many — see interpolate(const GridPosition&).
  struct GridPosition {
    std::size_t lo = 0;
    std::size_t hi = 0;
    double t = 0.0;
  };

  /// Locate \p frequency_hz on this grid.  \throws NumericError if empty.
  [[nodiscard]] GridPosition locate(double frequency_hz) const;

  /// Complex value at an arbitrary frequency by interpolating magnitude
  /// (log-log) and unwrapped phase (linear in log f) between neighbouring
  /// grid points.  Clamps outside the grid.  \throws NumericError if empty.
  /// Exactly interpolate(locate(f)).
  [[nodiscard]] Complex interpolate(double frequency_hz) const;

  /// Interpolate at a precomputed position (valid for any response on the
  /// same grid).  Bit-identical to interpolate(frequency).
  [[nodiscard]] Complex interpolate(const GridPosition& position) const;

  /// Linear magnitude at an arbitrary frequency (via interpolate()).
  [[nodiscard]] double magnitude_at(double frequency_hz) const;

  /// Magnitude in dB at an arbitrary frequency.
  [[nodiscard]] double magnitude_db_at(double frequency_hz) const;

  /// Largest |difference| to another response on the common grid.
  /// \throws NumericError if grids differ.
  [[nodiscard]] double max_deviation(const AcResponse& other) const;

  /// Index of the maximum-magnitude sample.
  [[nodiscard]] std::size_t peak_index() const;

private:
  static const std::vector<double> kNoGrid;

  std::shared_ptr<const ResponsePlanes> block_;
  const double* re_ = nullptr;  ///< the row in block_->re
  const double* im_ = nullptr;
};

}  // namespace ftdiag::mna
