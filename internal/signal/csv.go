package signal

import (
	"fmt"
	"io"
)

// WriteCSV dumps a record as CSV for inspection (cmd/wbsn-signal). Rows are
// indexed on the base-rate grid; a decimated channel contributes a value
// only on the base indices it actually samples, leaving its cell empty in
// between — the blank cells make the per-channel sampling grids visible in
// the dump. Ground-truth annotations precede the data as comments.
func WriteCSV(w io.Writer, src *Source) error {
	cfg := src.Cfg
	if _, err := fmt.Fprintf(w, "# synthetic %s: base %.0f Hz, %d pathological events (seed %d)\n",
		cfg.Kind, cfg.SampleRateHz, src.Events, cfg.Seed); err != nil {
		return err
	}
	rows := 0
	for ch := 0; ch < MaxChannels; ch++ {
		div := cfg.RateDiv[ch]
		if div < 1 {
			div = 1
		}
		if src.Rates[ch] > 0 {
			fmt.Fprintf(w, "# channel %d: %g Hz (divisor %d), %d samples\n",
				ch, src.Rates[ch], div, len(src.Traces[ch]))
			if n := len(src.Traces[ch]) * div; n > rows {
				rows = n
			}
		} else {
			fmt.Fprintf(w, "# channel %d: disabled\n", ch)
		}
	}
	for _, a := range src.Annotations {
		label := "N"
		if a.Pathological {
			label = "V"
		}
		fmt.Fprintf(w, "# event %s at base sample %d (onset %d, offset %d)\n", label, a.At, a.Onset, a.Offset)
	}
	fmt.Fprintln(w, "sample,ch0,ch1,ch2")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(w, "%d", i)
		for ch := 0; ch < MaxChannels; ch++ {
			div := cfg.RateDiv[ch]
			if div < 1 {
				div = 1
			}
			// Decimated sample m sits at base index (m+1)*div-1, its
			// strobe instant (see signal.decimate).
			if src.Rates[ch] > 0 && (i+1)%div == 0 && (i+1)/div-1 < len(src.Traces[ch]) {
				fmt.Fprintf(w, ",%d", src.Traces[ch][(i+1)/div-1])
			} else {
				fmt.Fprint(w, ",")
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}
