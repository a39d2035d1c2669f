/**
 * @file
 * Paper reference for the fig9-sweep workload.
 *
 * Source: Pericàs, Cristal, González, Jiménez, Valero, "A Decoupled
 * KILO-Instruction Processor", HPCA 2006, Figure 9 ("IPC of the
 * D-KIP compared to the baseline processors"): suite-average IPC on
 * SpecINT and SpecFP with the MEM-400 hierarchy. The values are the
 * averages bench/bench_fig09.cpp prints as its paper reference:
 *
 *     INT 1.19 / 1.32 /  -   / 1.38 / 1.33
 *     FP  1.26 / 1.71 / ~2.3 / 2.23 / 2.37
 *
 * for R10-64 / R10-256 / R10-768 / KILO-1024 / D-KIP-2048. The paper
 * gives no INT average for R10-768, so that cell is absent (9 cells).
 * No other workload of the benchmark has a paper reference: memstall,
 * compute and sampled-long measure an unvalidated model.
 */

#pragma once

namespace kilobench
{

/** Figure 9 machines, in the figure's column order (CLI aliases). */
inline constexpr const char *Fig9Machines[5] = {"r10-64", "r10-256",
                                                "r10-768", "kilo", "dkip"};

/** Suite-average IPC per machine; a negative value has no reference. */
inline constexpr double Fig9IntIpc[5] = {1.19, 1.32, -1.0, 1.38, 1.33};
inline constexpr double Fig9FpIpc[5] = {1.26, 1.71, 2.3, 2.23, 2.37};

} // namespace kilobench
