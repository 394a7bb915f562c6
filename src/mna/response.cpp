#include "mna/response.hpp"

#include <algorithm>
#include <cmath>

#include "util/error.hpp"

namespace ftdiag::mna {

bool is_valid_grid(std::span<const double> frequencies_hz) {
  for (std::size_t i = 0; i < frequencies_hz.size(); ++i) {
    if (!std::isfinite(frequencies_hz[i])) return false;
    if (i > 0 && frequencies_hz[i] < frequencies_hz[i - 1]) return false;
  }
  return true;
}

PolarSample polar_sample(Complex v) {
  const double mag = std::abs(v);
  return {mag, mag > 0.0 ? std::log(mag) : 0.0, std::arg(v)};
}

// Never inlined, so every caller runs the same compiled body: a copy
// inlined elsewhere may contract its multiply-adds differently.
[[gnu::noinline]] Complex interpolate_polar(const PolarSample& a,
                                            const PolarSample& b, double t) {
  const double mag =
      a.mag > 0.0 && b.mag > 0.0
          ? std::exp((1.0 - t) * a.log_mag + t * b.log_mag)
          : (1.0 - t) * a.mag + t * b.mag;
  constexpr double kPi = 3.14159265358979323846;
  double ph_b = b.phase;
  while (ph_b - a.phase > kPi) ph_b -= 2.0 * kPi;
  while (ph_b - a.phase < -kPi) ph_b += 2.0 * kPi;
  const double ph = (1.0 - t) * a.phase + t * ph_b;
  return Complex(mag * std::cos(ph), mag * std::sin(ph));
}

ResponsePlanes::ResponsePlanes(std::vector<double> frequencies_hz,
                               std::size_t row_count)
    : frequencies(std::move(frequencies_hz)),
      rows(row_count),
      re(row_count * frequencies.size()),
      im(row_count * frequencies.size()) {
  FTDIAG_ASSERT(std::is_sorted(frequencies.begin(), frequencies.end()),
                "response frequencies must ascend");
}

const std::vector<double> AcResponse::kNoGrid;

AcResponse::AcResponse(std::vector<double> frequencies_hz,
                       const std::vector<Complex>& values) {
  FTDIAG_ASSERT(frequencies_hz.size() == values.size(),
                "response frequency/value length mismatch");
  auto block = std::make_shared<ResponsePlanes>(std::move(frequencies_hz), 1);
  for (std::size_t i = 0; i < values.size(); ++i) {
    block->re[i] = values[i].real();
    block->im[i] = values[i].imag();
  }
  *this = AcResponse(std::move(block), 0);
}

AcResponse::AcResponse(std::shared_ptr<const ResponsePlanes> block,
                       std::size_t row)
    : block_(std::move(block)) {
  FTDIAG_ASSERT(block_ && row < block_->rows, "response row out of range");
  re_ = block_->re.data() + row * block_->grid();
  im_ = block_->im.data() + row * block_->grid();
}

std::vector<Complex> AcResponse::values() const {
  std::vector<Complex> out(size());
  for (std::size_t i = 0; i < out.size(); ++i) out[i] = value(i);
  return out;
}

double AcResponse::magnitude(std::size_t i) const {
  return std::abs(value(i));
}

double AcResponse::magnitude_db(std::size_t i) const {
  return linalg::to_db(value(i));
}

double AcResponse::phase_deg(std::size_t i) const {
  return linalg::phase_deg(value(i));
}

AcResponse::GridPosition AcResponse::locate(double frequency_hz) const {
  if (empty()) throw NumericError("interpolation on an empty response");
  const std::vector<double>& freq_hz = frequencies();
  if (frequency_hz <= freq_hz.front()) return {0, 0, 0.0};
  if (frequency_hz >= freq_hz.back()) {
    return {freq_hz.size() - 1, freq_hz.size() - 1, 0.0};
  }

  const auto upper =
      std::upper_bound(freq_hz.begin(), freq_hz.end(), frequency_hz);
  const std::size_t hi = static_cast<std::size_t>(upper - freq_hz.begin());
  const std::size_t lo = hi - 1;

  const double f_lo = freq_hz[lo];
  const double f_hi = freq_hz[hi];
  // Interpolation parameter in log-frequency (grids are log-spaced); guard
  // against non-positive frequencies on linear grids.
  double t;
  if (f_lo > 0.0 && f_hi > 0.0) {
    t = (std::log(frequency_hz) - std::log(f_lo)) /
        (std::log(f_hi) - std::log(f_lo));
  } else {
    t = (frequency_hz - f_lo) / (f_hi - f_lo);
  }
  return {lo, hi, t};
}

Complex AcResponse::interpolate(double frequency_hz) const {
  return interpolate(locate(frequency_hz));
}

Complex AcResponse::interpolate(const GridPosition& position) const {
  if (empty()) throw NumericError("interpolation on an empty response");
  if (position.lo == position.hi) return value(position.lo);
  return interpolate_polar(polar_sample(value(position.lo)),
                           polar_sample(value(position.hi)), position.t);
}

double AcResponse::magnitude_at(double frequency_hz) const {
  return std::abs(interpolate(frequency_hz));
}

double AcResponse::magnitude_db_at(double frequency_hz) const {
  return linalg::to_db(interpolate(frequency_hz));
}

double AcResponse::max_deviation(const AcResponse& other) const {
  if (frequencies() != other.frequencies()) {
    throw NumericError("max_deviation requires identical frequency grids");
  }
  double max_dev = 0.0;
  for (std::size_t i = 0; i < size(); ++i) {
    max_dev = std::max(max_dev, std::abs(value(i) - other.value(i)));
  }
  return max_dev;
}

std::size_t AcResponse::peak_index() const {
  FTDIAG_ASSERT(!empty(), "peak of an empty response");
  std::size_t best = 0;
  for (std::size_t i = 1; i < size(); ++i) {
    if (std::abs(value(i)) > std::abs(value(best))) best = i;
  }
  return best;
}

}  // namespace ftdiag::mna
