package main

import (
	"fmt"
	"io"

	"repro/internal/harness"
)

// verdicts prints one PASS/FAIL line per claim and counts them.
type verdicts struct {
	w             io.Writer
	total, failed int
}

func (v *verdicts) check(claim string, passed bool, format string, args ...any) {
	v.total++
	status := "PASS"
	if !passed {
		v.failed++
		status = "FAIL"
	}
	fmt.Fprintf(v.w, "  [%s] %s — %s\n", status, claim, fmt.Sprintf(format, args...))
}

// runClaims regenerates every figure of the paper in one run and checks
// each of the paper's qualitative claims against the measurements, a
// PASS/FAIL verdict per claim: the whole evaluation as one artifact. It
// runs reduced iteration counts unless -full, and exits 1 if any claim
// fails.
func runClaims(args []string, stdout, stderr io.Writer) int {
	c := newCommand("claims", stderr)
	full := c.Bool("full", false, "full iteration counts (slower)")
	c.harness()
	c.metrics(false)
	if !c.parse(args) {
		return 2
	}
	o, rep := c.options()
	if !*full {
		o.Iters = 30
		o.SkewIters = 60
	}
	v := &verdicts{w: stdout}
	p := func(s string) { fmt.Fprintln(stdout, s) }

	p("Reproducing: High Performance and Reliable NIC-Based Multicast over Myrinet/GM-2 (ICPP 2003)\n")

	p("Figure 3 — NIC-based multisend vs host-based multiple unicasts")
	multisend := func(dests, size int) float64 {
		return harness.Point{HB: o.MultisendHB(dests, size), NB: o.MultisendNB(dests, size)}.Factor()
	}
	small, large := multisend(4, 64), multisend(4, 16384)
	f3, f8 := multisend(3, 64), multisend(8, 64)
	v.check("small messages improve clearly (paper: up to 2.05x)", small >= 1.5, "64B to 4 dests: %.2fx", small)
	v.check("large messages level off at/just below parity", large >= 0.9 && large <= 1.05, "16KB to 4 dests: %.2fx", large)
	v.check("improvement grows with destination count", f8 > f3, "3 dests %.2fx vs 8 dests %.2fx", f3, f8)
	rep.Report(stdout, "figure 3 (multisend)")

	p("Figure 5 — GM-level multicast, 16 nodes")
	multicast := func(size int) float64 {
		return harness.Point{HB: o.MulticastHB(16, size), NB: o.MulticastNB(16, size)}.Factor()
	}
	small, dip, big := multicast(128), multicast(4096), multicast(16384)
	v.check("small messages improve clearly (paper: 1.48x)", small >= 1.4, "128B: %.2fx", small)
	v.check("single-packet 4KB dips below the small-message factor", dip < small, "4KB %.2fx vs 128B %.2fx", dip, small)
	v.check("16KB stays a clear NIC-based win via pipelining (paper: 1.86x)", big >= 1.4, "16KB: %.2fx", big)
	rep.Report(stdout, "figure 5 (GM-level multicast)")

	p("Figure 4 — MPI-level broadcast, 16 nodes")
	o4 := o
	o4.Iters = min(o.Iters, 20)
	bcast := func(size int) float64 {
		return harness.Point{HB: o4.MPIBcast(16, size, false), NB: o4.MPIBcast(16, size, true)}.Factor()
	}
	small, eager := bcast(16), bcast(8192)
	v.check("small messages improve clearly (paper: up to 1.78x)", small >= 1.4, "16B: %.2fx", small)
	v.check("8KB eager messages improve (paper: up to 2.02x)", eager >= 1.2, "8KB: %.2fx", eager)
	rep.Report(stdout, "figure 4 (MPI broadcast)")

	p("Figure 6 — tolerance to process skew, 16 nodes")
	hb0, hb400 := o.SkewCPUTime(16, 4, 0, false), o.SkewCPUTime(16, 4, 400, false)
	nb0, nb400 := o.SkewCPUTime(16, 4, 0, true), o.SkewCPUTime(16, 4, 400, true)
	v.check("host-based CPU time grows with skew", hb400 > hb0, "%.1f -> %.1f µs", hb0, hb400)
	v.check("NIC-based CPU time falls/flattens with skew", nb400 <= nb0*1.2, "%.1f -> %.1f µs", nb0, nb400)
	v.check("improvement grows with skew (paper: up to 5.82x)", hb400/nb400 > hb0/nb0, "factor %.1fx -> %.1fx", hb0/nb0, hb400/nb400)

	p("Figure 7 — skew improvement vs system size (400µs avg skew)")
	f7 := o.Fig7([]int{4, 16}, []int{4})
	v.check("larger systems benefit more from the NIC-based multicast", f7[1].Factor > f7[0].Factor,
		"4 nodes %.1fx vs 16 nodes %.1fx", f7[0].Factor, f7[1].Factor)
	rep.Report(stdout, "figures 6-7 (process skew)")

	p("Section 6.1 — no impact on non-multicast communication")
	plain, ext := o.UnicastOneWay(4, false), o.UnicastOneWay(4, true)
	v.check("unicast latency identical with the extension installed", plain == ext, "%.2fµs both ways", plain)

	p("Section 7 — future work, implemented and measured")
	scale := o.ScaleSweep([]int{16, 128}, 64)
	v.check("multicast advantage grows to 128 nodes across Clos fabrics", scale[1].Factor() > scale[0].Factor(),
		"16 nodes %.2fx vs 128 nodes %.2fx", scale[0].Factor(), scale[1].Factor())
	nic, host := o.NICBarrier(16), o.HostBarrier(16)
	v.check("NIC-level barrier beats host-level dissemination", nic < host, "NIC %.1fµs vs host %.1fµs", nic, host)

	fmt.Fprintf(stdout, "\n%d/%d qualitative claims reproduced", v.total-v.failed, v.total)
	if v.failed > 0 {
		fmt.Fprintf(stdout, " (%d FAILED)\n", v.failed)
		return 1
	}
	fmt.Fprintln(stdout)
	return 0
}
