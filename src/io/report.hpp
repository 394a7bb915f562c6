/// \file report.hpp
/// \brief Human-readable reports of ATPG runs and diagnosis evaluations
/// (shared by the examples and benchmark binaries).
#pragma once

#include <iosfwd>

#include "core/diagnosis.hpp"
#include "core/evaluation.hpp"
#include "session.hpp"

namespace ftdiag::io {

/// Print the test vector, fitness, intersection count and GA convergence.
void print_atpg_report(std::ostream& os, const TestGenResult& result);

/// Print a ranked diagnosis ("fault is on N, deviation about +23%...").
void print_diagnosis(std::ostream& os, const core::Diagnosis& diagnosis,
                     std::size_t max_candidates = 3);

/// Print the accuracy report including the confusion matrix.
void print_accuracy_report(std::ostream& os,
                           const core::AccuracyReport& report);

}  // namespace ftdiag::io
