package harness

import (
	"fmt"
	"io"
	"math"
	"strconv"
	"strings"
	"text/tabwriter"
)

// WriteTable renders a sweep as an aligned text table under title, one row
// per point — the rows behind one curve pair of the paper's figures. The
// headings name the columns: an x field ("collective", "nodes", "size(B)",
// "skew(µs)"), a side (any heading starting "HB" or "NB"), "factor", or ""
// for the collective sweep's note on allgather points the MPI layer's NIC
// path does not take, where the NB column measured the host fallback.
func WriteTable(w io.Writer, title string, pts []Point, heads ...string) {
	fmt.Fprintf(w, "%s\n", title)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', tabwriter.AlignRight)
	for _, h := range heads {
		fmt.Fprintf(tw, "%s\t", h)
	}
	fmt.Fprintln(tw)
	for _, p := range pts {
		for _, h := range heads {
			fmt.Fprintf(tw, "%s\t", cell(h, p))
		}
		fmt.Fprintln(tw)
	}
	tw.Flush()
}

// cell formats p's entry in the column headed h.
func cell(h string, p Point) string {
	switch {
	case h == "collective":
		return p.Collective
	case h == "nodes":
		return strconv.Itoa(p.Nodes)
	case h == "size(B)":
		return strconv.Itoa(p.Size)
	case h == "skew(µs)":
		return fmt.Sprintf("%.0f", p.Skew)
	case h == "factor":
		return fmt.Sprintf("%.2f", p.Factor())
	case strings.HasPrefix(h, "HB"):
		return fmt.Sprintf("%.2f", p.HB)
	case strings.HasPrefix(h, "NB"):
		return fmt.Sprintf("%.2f", p.NB)
	case h == "":
		if p.Collective == "allgather" && !AllgatherNICEligible(p.Nodes, p.Size) {
			return "host fallback (result > eager limit)"
		}
		return ""
	}
	panic("harness: unknown table column " + strconv.Quote(h))
}

// Curve is one named line of a chart: its y value at each x position.
type Curve struct {
	Name string
	Y    []float64
}

// markers cycles distinct glyphs per curve.
var markers = []byte{'*', 'o', '+', 'x', '#', '@'}

// Plot renders curves over shared x positions 0..n-1 as a 64x14 ASCII
// chart — enough to see the paper's curve shapes straight in a terminal,
// next to the tables. ticks labels selected x positions under the axis;
// NaN and infinite values leave gaps.
func Plot(w io.Writer, title, xlabel, ylabel string, ticks map[int]string, curves ...Curve) {
	const width, height = 64, 14
	maxN := 0
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, c := range curves {
		maxN = max(maxN, len(c.Y))
		for _, v := range c.Y {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				lo, hi = math.Min(lo, v), math.Max(hi, v)
			}
		}
	}
	if maxN == 0 || math.IsInf(lo, 1) {
		fmt.Fprintln(w, "(no data)")
		return
	}
	if hi == lo {
		hi = lo + 1
	}
	// A little headroom so extremes don't sit on the frame.
	pad := (hi - lo) * 0.05
	lo, hi = lo-pad, hi+pad

	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	col := func(i int) int {
		if maxN == 1 {
			return 0
		}
		return i * (width - 1) / (maxN - 1)
	}
	row := func(v float64) int {
		r := int(math.Round(float64(height-1) * (1 - (v-lo)/(hi-lo))))
		return min(max(r, 0), height-1)
	}
	var legend []string
	for ci, c := range curves {
		m := markers[ci%len(markers)]
		legend = append(legend, fmt.Sprintf("%c %s", m, c.Name))
		prevC, prevR := -1, -1
		for i, v := range c.Y {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				prevC = -1
				continue
			}
			cc, rr := col(i), row(v)
			if prevC >= 0 {
				drawLine(grid, prevC, prevR, cc, rr)
			}
			grid[rr][cc] = m
			prevC, prevR = cc, rr
		}
	}

	fmt.Fprintln(w, title)
	yTop, yBot := fmt.Sprintf("%.2f", hi), fmt.Sprintf("%.2f", lo)
	lw := max(len(yTop), len(yBot))
	for r, line := range grid {
		label := ""
		switch r {
		case 0:
			label = yTop
		case height - 1:
			label = yBot
		}
		fmt.Fprintf(w, "%*s |%s\n", lw, label, line)
	}
	fmt.Fprintf(w, "%s +%s\n", strings.Repeat(" ", lw), strings.Repeat("-", width))
	if len(ticks) > 0 {
		axis := []byte(strings.Repeat(" ", width+lw+12)) // slack so edge labels fit
		for i, lab := range ticks {
			copy(axis[min(lw+2+col(i), len(axis)):], lab)
		}
		fmt.Fprintln(w, strings.TrimRight(string(axis), " "))
	}
	fmt.Fprintf(w, "  %s   [x: %s] [y: %s]\n", strings.Join(legend, "   "), xlabel, ylabel)
}

// drawLine traces a Bresenham segment of dots, leaving markers intact.
func drawLine(grid [][]byte, x0, y0, x1, y1 int) {
	dx, dy := abs(x1-x0), -abs(y1-y0)
	sx, sy := 1, 1
	if x0 > x1 {
		sx = -1
	}
	if y0 > y1 {
		sy = -1
	}
	for err := dx + dy; ; {
		if grid[y0][x0] == ' ' {
			grid[y0][x0] = '.'
		}
		if x0 == x1 && y0 == y1 {
			return
		}
		e2 := 2 * err
		if e2 >= dy {
			err += dy
			x0 += sx
		}
		if e2 <= dx {
			err += dx
			y0 += sy
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
