package exp

import (
	"fmt"
	"strings"

	"repro/internal/power"
)

// Fig6Bar is one bar of Figure 6: the power decomposition of a benchmark on
// one architecture variant.
type Fig6Bar struct {
	App  string
	Arch power.Arch
	M    *Measurement
}

// FormatFigure6 renders the decomposition as text, normalized to each
// benchmark's single-core total (the paper's y-axis is % of SC).
func FormatFigure6(bars []Fig6Bar) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-10s %-10s %8s |", "app", "arch", "total uW")
	for comp := power.Component(0); comp < power.NumComponents; comp++ {
		fmt.Fprintf(&sb, " %12s", comp)
	}
	fmt.Fprintf(&sb, " %8s\n", "% of SC")
	scTotal := map[string]float64{}
	for _, b := range bars {
		if b.Arch == power.SC {
			scTotal[b.App] = b.M.Report.TotalUW
		}
	}
	for _, b := range bars {
		fmt.Fprintf(&sb, "%-10s %-10s %8.1f |", b.App, b.Arch, b.M.Report.TotalUW)
		for comp := power.Component(0); comp < power.NumComponents; comp++ {
			fmt.Fprintf(&sb, " %12.1f", b.M.Report.ComponentUW(comp))
		}
		fmt.Fprintf(&sb, " %8.1f\n", 100*b.M.Report.TotalUW/scTotal[b.App])
	}
	return sb.String()
}

// Fig7Point is one x-position of Figure 7: RP-CLASS at a pathological-beat
// share.
type Fig7Point struct {
	PathoPct     float64
	SCUW, MCUW   float64
	ReductionPct float64
}

// Fig7Shares are the paper's x-axis values.
var Fig7Shares = []float64{0, 0.10, 0.20, 0.25, 0.33, 0.50, 1.00}

// FormatFigure7 renders the sweep as text.
func FormatFigure7(pts []Fig7Point) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-14s %10s %10s %12s\n", "patho share", "SC (uW)", "MC (uW)", "reduction")
	for _, p := range pts {
		fmt.Fprintf(&sb, "%13.0f%% %10.1f %10.1f %11.1f%%\n", p.PathoPct, p.SCUW, p.MCUW, p.ReductionPct)
	}
	return sb.String()
}
