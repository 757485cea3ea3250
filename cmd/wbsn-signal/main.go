// Command wbsn-signal dumps any registered synthetic signal kind (ECG, EMG,
// PPG) as CSV for inspection, with the ground-truth event annotations as
// comments. The kind defaults to ECG, so with no flags it dumps a 10-s
// multi-lead ECG record. The signal can be configured by flags or taken
// from a scenario file; with multi-rate divisors the decimated channels
// leave blank cells on the base indices they skip, making the per-channel
// sampling grids visible.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"repro/internal/scenario"
	"repro/internal/signal"
)

func main() {
	kind := flag.String("kind", "ecg", fmt.Sprintf("signal kind: %s", strings.Join(signal.Kinds(), ", ")))
	duration := flag.Float64("duration", 10, "record length in seconds")
	rate := flag.Float64("rate", 0, "base sample rate in Hz (0 = kind default)")
	rateDiv := flag.String("rate-div", "", "per-channel rate divisors, e.g. 1,2,4")
	eventRate := flag.Float64("event-rate", 0, "events (beats/bursts/pulses) per second (0 = kind default)")
	patho := flag.Float64("pathological", 0, "pathological-event share 0..1")
	amplitude := flag.Float64("amplitude", 0, "principal wave amplitude in LSB (0 = kind default)")
	noise := flag.Float64("noise", 0, "noise amplitude in LSB (0 = kind default)")
	seed := flag.Int64("seed", 1, "generator seed")
	scenarioPath := flag.String("scenario", "", "take the signal configuration from a scenario file instead of the flags")
	flag.Parse()

	// Explicitly-set flags override the scenario file's values, the
	// precedence wbsn-sim and wbsn-bench apply.
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })

	cfg := signal.Config{
		Kind:             signal.Kind(*kind),
		SampleRateHz:     *rate,
		Seed:             *seed,
		PathologicalFrac: *patho,
		EventRateHz:      *eventRate,
		Amplitude:        *amplitude,
		NoiseAmp:         *noise,
	}
	if *scenarioPath != "" {
		scn, err := scenario.Load(*scenarioPath)
		if err != nil {
			fatal(err)
		}
		base := scn.Signal
		if set["kind"] {
			base.Kind = cfg.Kind
		}
		if set["rate"] {
			base.SampleRateHz = cfg.SampleRateHz
		}
		if set["seed"] {
			base.Seed = cfg.Seed
		}
		if set["pathological"] {
			base.PathologicalFrac = cfg.PathologicalFrac
		}
		if set["event-rate"] {
			base.EventRateHz = cfg.EventRateHz
		}
		if set["amplitude"] {
			base.Amplitude = cfg.Amplitude
		}
		if set["noise"] {
			base.NoiseAmp = cfg.NoiseAmp
		}
		cfg = base
	}
	if *rateDiv != "" {
		divs := strings.Split(*rateDiv, ",")
		if len(divs) > signal.MaxChannels {
			fatal(fmt.Errorf("-rate-div has %d entries, the ADC has %d channels", len(divs), signal.MaxChannels))
		}
		cfg.RateDiv = [signal.MaxChannels]int{}
		for ch, d := range divs {
			v, err := strconv.Atoi(strings.TrimSpace(d))
			if err != nil {
				fatal(fmt.Errorf("-rate-div entry %q: %w", d, err))
			}
			cfg.RateDiv[ch] = v
		}
	}

	src, err := signal.Synthesize(cfg, *duration)
	if err != nil {
		fatal(err)
	}
	w := bufio.NewWriter(os.Stdout)
	if err := signal.WriteCSV(w, src); err != nil {
		fatal(err)
	}
	if err := w.Flush(); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
