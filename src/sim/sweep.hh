/**
 * @file
 * Suite-level sweep helpers.
 *
 * The paper reports arithmetic-mean IPC over the SpecINT and SpecFP
 * suites; these helpers name the suites and reduce the results the
 * same way. Run a suite as a SweepEngine matrix:
 *
 *     auto results = SweepEngine().run(SweepEngine::matrix(
 *         {machine}, fpSuite(), {mem::MemConfig::mem400()}, rc));
 *     double ipc = meanIpc(results);
 */

#pragma once

#include <string>
#include <vector>

#include "src/sim/simulator.hh"

namespace kilo::sim
{

/** Names of the SpecINT-like suite, Figure 13 order. */
std::vector<std::string> intSuite();

/** Names of the SpecFP-like suite, Figure 14 order. */
std::vector<std::string> fpSuite();

/** Arithmetic mean of IPC over @p results (the paper's reduction). */
double meanIpc(const std::vector<RunResult> &results);

/** Mean fraction of committed instructions executed in the MP. */
double meanMpFraction(const std::vector<RunResult> &results);

} // namespace kilo::sim

