/**
 * @file
 * The benchmark suite: seven synthetic workloads standing in for the
 * SPEC95 integer programs the paper evaluates (compress, go, ijpeg,
 * li, vortex, perl, gcc).
 *
 * Each benchmark is a parameterization of the workload generator
 * (generator.hh). The knobs are exactly the program properties the
 * paper's optimizations respond to:
 *
 *  - call density and procedure count/topology (drives I-DVI and
 *    save/restore frequency; Fig. 3's "Call Inst" column);
 *  - callee-saved value count per procedure (drives save/restore
 *    density; Fig. 3's "Saves & Restores" column);
 *  - the fraction of callee-saved values that stay live across all of
 *    a procedure's calls vs. dying early (drives the eliminable
 *    fraction; Fig. 9 — perl kills most, go kills few);
 *  - memory intensity (Fig. 3's "Mem Inst", Fig. 11's bandwidth
 *    sensitivity);
 *  - recursion depth (li is recursion-heavy, exercising LVM-Stack
 *    overflow — the paper's 94%-at-16-entries result);
 *  - FP usage (integer codes leave FP registers dead — §6.2).
 *
 * Parameter values are calibrated so the suite's characterization
 * table is *representative* of SPEC95 integer codes (the paper's
 * Fig. 3 numbers are not recoverable from the scanned text); the
 * `fig03` scenario prints that table (`dvi-run --scenario fig03`).
 */

#ifndef DVI_WORKLOAD_BENCHMARKS_HH
#define DVI_WORKLOAD_BENCHMARKS_HH

#include <string>
#include <vector>

#include "workload/generator.hh"

namespace dvi
{
namespace workload
{

/** The benchmark programs of the paper's Fig. 3. */
enum class BenchmarkId
{
    Compress,
    Go,
    Ijpeg,
    Li,
    Vortex,
    Perl,
    Gcc,
};

/** All benchmarks, in the paper's reporting order. */
std::vector<BenchmarkId> allBenchmarks();

/** The six benchmarks with significant save/restore activity
 * (Fig. 9/10 drop compress). */
std::vector<BenchmarkId> saveRestoreBenchmarks();

/** Display name, e.g. "perl". */
std::string benchmarkName(BenchmarkId id);

/** Generator parameters for a benchmark. */
GeneratorParams benchmarkParams(BenchmarkId id);

/** Convenience: generate the benchmark's IR module. */
prog::Module generateBenchmark(BenchmarkId id);

} // namespace workload
} // namespace dvi

#endif // DVI_WORKLOAD_BENCHMARKS_HH
