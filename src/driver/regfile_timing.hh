/**
 * @file
 * Register file access-time model (the paper's Fig. 6 methodology).
 *
 * The paper uses a modified CACTI to time multiported register files
 * and states the governing relationship (§4): "Access time is
 * quadratic in the number of read and write ports and linear in the
 * number of registers." This model implements exactly that form,
 *
 *     t(n, p) = t0 + a * n + b * p^2        [nanoseconds]
 *
 * with coefficients calibrated to CACTI-era (0.8um-scaled) latencies:
 * a 64-entry, 12-port (8R+4W) file comes out near 1.4 ns and shrinking
 * it to 50 entries buys a few percent of cycle time — the magnitude
 * the paper reports (22% fewer registers -> 1.1% overall performance).
 *
 * Overall system performance is IPC x clock rate = IPC / t.
 */

#ifndef DVI_DRIVER_REGFILE_TIMING_HH
#define DVI_DRIVER_REGFILE_TIMING_HH

namespace dvi
{
namespace timing
{

/** CACTI-style multiported register file timing model. */
struct RegFileTimingModel
{
    double t0 = 0.60;   ///< ns: sense/decode overhead
    double a = 0.0040;  ///< ns per register (bitline length)
    double b = 0.0038;  ///< ns per (port count)^2 (cell growth)

    /** Access time in ns for n registers with r read + w write
     * ports. */
    double
    accessTime(unsigned nregs, unsigned read_ports,
               unsigned write_ports) const
    {
        const double p =
            static_cast<double>(read_ports + write_ports);
        return t0 + a * static_cast<double>(nregs) + b * p * p;
    }

    /**
     * Ports required by an issue-width-wide machine: two read ports
     * per issue slot, one write port (§4.2: "a 4 way issue machine
     * requires 8 read ports and 4 write ports").
     */
    double
    accessTimeForIssueWidth(unsigned nregs, unsigned issue_width) const
    {
        return accessTime(nregs, 2 * issue_width, issue_width);
    }

    /** Performance metric: IPC divided by cycle time. */
    double
    performance(double ipc, unsigned nregs, unsigned issue_width) const
    {
        return ipc / accessTimeForIssueWidth(nregs, issue_width);
    }
};

} // namespace timing
} // namespace dvi

#endif // DVI_DRIVER_REGFILE_TIMING_HH
