/// \file ftdiag.hpp
/// \brief Umbrella header for the ftdiag public API.
///
/// Pulls in the Session facade (the recommended entry point) together with
/// the supporting surfaces an application typically needs: the benchmark
/// circuit registry, netlist parsing, fault injection for what-if studies,
/// and the report renderers.
///
///   #include "ftdiag.hpp"
///
///   auto session = ftdiag::SessionBuilder::from_registry("tow_thomas")
///                      .fitness(ftdiag::FitnessKind::kHybrid)
///                      .build();
///   auto program = session.generate_tests();
///   auto verdict = session.diagnose(session.measure(some_fault));
#pragma once

#include "session.hpp"

#include "circuits/registry.hpp"
#include "faults/fault_injector.hpp"
#include "io/dictionary_io.hpp"
#include "io/mapped_file.hpp"
#include "io/report.hpp"
#include "io/run_report.hpp"
#include "mna/ac_analysis.hpp"
#include "net/client.hpp"
#include "net/server.hpp"
#include "netlist/parser.hpp"
#include "service/diagnosis_service.hpp"
#include "service/dictionary_store.hpp"
