package exp

import (
	"fmt"
	"strings"
)

// TableIRow is one benchmark's column pair of the paper's Table I.
type TableIRow struct {
	App       string
	SC, MC    *Measurement
	SavingPct float64
}

// FormatTableI renders the rows in the paper's layout.
func FormatTableI(rows []TableIRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-22s", "")
	for _, r := range rows {
		fmt.Fprintf(&sb, "| %-8s %-8s ", r.App+" SC", "MC")
	}
	sb.WriteString("\n")
	line := func(label string, f func(TableIRow) (string, string)) {
		fmt.Fprintf(&sb, "%-22s", label)
		for _, r := range rows {
			a, b := f(r)
			fmt.Fprintf(&sb, "| %-8s %-8s ", a, b)
		}
		sb.WriteString("\n")
	}
	line("Active Cores", func(r TableIRow) (string, string) {
		return fmt.Sprintf("%d", r.SC.Cores), fmt.Sprintf("%d", r.MC.Cores)
	})
	line("Active IM banks", func(r TableIRow) (string, string) {
		return fmt.Sprintf("%d", r.SC.ActiveIMBanks), fmt.Sprintf("%d", r.MC.ActiveIMBanks)
	})
	line("Active DM banks", func(r TableIRow) (string, string) {
		return fmt.Sprintf("%d", r.SC.ActiveDMBanks), fmt.Sprintf("%d", r.MC.ActiveDMBanks)
	})
	line("IM Broadcast (%)", func(r TableIRow) (string, string) {
		return "-", fmt.Sprintf("%.2f", r.MC.Counters.IMBroadcastPct())
	})
	line("DM Broadcast (%)", func(r TableIRow) (string, string) {
		return "-", fmt.Sprintf("%.2f", r.MC.Counters.DMBroadcastPct())
	})
	line("Min. Clock (MHz)", func(r TableIRow) (string, string) {
		return fmt.Sprintf("%.1f", r.SC.Op.FreqHz/1e6), fmt.Sprintf("%.1f", r.MC.Op.FreqHz/1e6)
	})
	line("Min. Voltage (V)", func(r TableIRow) (string, string) {
		return fmt.Sprintf("%.1f", r.SC.Op.VoltageV), fmt.Sprintf("%.1f", r.MC.Op.VoltageV)
	})
	line("Code Overhead (%)", func(r TableIRow) (string, string) {
		return "-", fmt.Sprintf("%.2f", r.MC.CodeOverheadPct)
	})
	line("Run-time Overhead (%)", func(r TableIRow) (string, string) {
		return "-", fmt.Sprintf("%.2f", r.MC.Counters.RuntimeOverheadPct())
	})
	line("Avg. Power (uW)", func(r TableIRow) (string, string) {
		return fmt.Sprintf("%.1f", r.SC.Report.TotalUW), fmt.Sprintf("%.1f", r.MC.Report.TotalUW)
	})
	fmt.Fprintf(&sb, "%-22s", "Saving")
	for _, r := range rows {
		fmt.Fprintf(&sb, "| %-17s ", fmt.Sprintf("%.1f %%", r.SavingPct))
	}
	sb.WriteString("\n")
	return sb.String()
}
