#include "io/exporters.hpp"

#include <fstream>
#include <ostream>
#include <sstream>

#include "io/dictionary_io.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"
#include "util/units.hpp"

namespace ftdiag::io {

void write_response_csv(std::ostream& os, const mna::AcResponse& response) {
  csv::Writer writer(os);
  writer.row({"freq_hz", "mag", "mag_db", "phase_deg"});
  for (std::size_t i = 0; i < response.size(); ++i) {
    writer.row_numeric({response.frequency(i), response.magnitude(i),
                        response.magnitude_db(i), response.phase_deg(i)});
  }
}

void write_measurement_csv(std::ostream& os, const mna::AcResponse& measured) {
  csv::Writer writer(os);
  writer.row({"freq_hz", "re", "im"});
  for (std::size_t i = 0; i < measured.size(); ++i) {
    writer.row({str::format("%.17g", measured.frequency(i)),
                str::format("%.17g", measured.value(i).real()),
                str::format("%.17g", measured.value(i).imag())});
  }
}

void write_measurement_csv_file(const std::string& path,
                                const mna::AcResponse& measured) {
  std::ostringstream os;
  write_measurement_csv(os, measured);
  write_file(path, os.str());
}

mna::AcResponse load_measurement_csv(const std::string& text) {
  const csv::Table table = csv::parse(text);
  const std::size_t c_freq = table.column("freq_hz");
  const std::size_t c_re = table.column("re");
  const std::size_t c_im = table.column("im");
  std::vector<double> freqs;
  std::vector<mna::Complex> values;
  freqs.reserve(table.rows.size());
  values.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    if (row.size() != table.header.size()) {
      throw ParseError("measurement row has wrong field count");
    }
    freqs.push_back(units::parse(row[c_freq]));
    values.emplace_back(units::parse(row[c_re]), units::parse(row[c_im]));
  }
  if (freqs.empty()) throw ParseError("measurement file has no samples");
  if (!mna::is_valid_grid(freqs)) {
    throw ParseError("measurement frequencies are not finite and ascending");
  }
  return mna::AcResponse(std::move(freqs), values);
}

mna::AcResponse load_measurement_csv_file(const std::string& path) {
  return load_measurement_csv(read_file_bytes(path));
}

void write_dictionary_csv(std::ostream& os,
                          const faults::FaultDictionary& dictionary) {
  csv::Writer writer(os);
  std::vector<std::string> header = {"freq_hz", "golden"};
  for (const auto& entry : dictionary.entries()) {
    header.push_back(entry.fault.label());
  }
  writer.row(header);
  const auto& freqs = dictionary.frequencies();
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    std::vector<double> row = {freqs[i], dictionary.golden().magnitude(i)};
    for (const auto& entry : dictionary.entries()) {
      row.push_back(entry.response.magnitude(i));
    }
    writer.row_numeric(row);
  }
}

void write_trajectories_csv(
    std::ostream& os, const std::vector<core::FaultTrajectory>& trajectories) {
  csv::Writer writer(os);
  const std::size_t dim =
      trajectories.empty() ? 0 : trajectories.front().dimension();
  std::vector<std::string> header = {"site", "deviation"};
  for (std::size_t d = 0; d < dim; ++d) {
    header.push_back(str::format("x%zu", d));
  }
  writer.row(header);
  for (const auto& trajectory : trajectories) {
    for (const auto& point : trajectory.points()) {
      std::vector<std::string> row = {trajectory.site(),
                                      str::format("%.10g", point.deviation)};
      for (double v : point.coords) row.push_back(str::format("%.10g", v));
      writer.row(row);
    }
  }
}

std::string trajectory_gnuplot_script(
    const std::vector<core::FaultTrajectory>& trajectories,
    const std::string& csv_path, const std::string& title) {
  if (!trajectories.empty() && trajectories.front().dimension() != 2) {
    throw ConfigError("gnuplot export requires 2-D trajectories");
  }
  std::ostringstream os;
  os << "# gnuplot script generated by ftdiag\n"
     << "set datafile separator ','\n"
     << "set title '" << title << "'\n"
     << "set xlabel 'x0 (|H(f1)| - golden)'\n"
     << "set ylabel 'x1 (|H(f2)| - golden)'\n"
     << "set key outside\n"
     << "set grid\n"
     << "plot \\\n";
  for (std::size_t i = 0; i < trajectories.size(); ++i) {
    const std::string& site = trajectories[i].site();
    os << "  '" << csv_path << "' using (strcol(1) eq '" << site
       << "' ? $3 : NaN):4 with linespoints title '" << site << "'";
    os << (i + 1 < trajectories.size() ? ", \\\n" : ",\\\n");
  }
  os << "  '-' with points pt 7 ps 2 lc rgb 'black' title 'golden'\n"
     << "0 0\ne\n";
  return os.str();
}

void write_file(const std::string& path, const std::string& contents) {
  std::ofstream out(path, std::ios::binary);
  if (!out) throw Error("cannot open '" + path + "' for writing");
  out << contents;
  if (!out) throw Error("failed writing '" + path + "'");
}

}  // namespace ftdiag::io
