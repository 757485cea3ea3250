// Package scenario loads declarative experiment scenarios: JSON files that
// select a signal kind, per-channel sampling rates, seed, pathological
// fraction, simulated durations, and which benchmark applications and
// architecture variants to solve — turning every new workload into a config
// file instead of a code change (ROADMAP: "scenario files selecting traces,
// rates and per-app parameters").
//
// A scenario file looks like:
//
//	{
//	  "name": "emg-burst",
//	  "description": "surface-EMG burst activity at 400 Hz",
//	  "signal": {
//	    "kind": "emg",
//	    "sample_rate_hz": 400,
//	    "rate_div": [1, 1, 1],
//	    "seed": 1,
//	    "event_rate_hz": 0.6,
//	    "pathological_frac": 0.2,
//	    "amplitude": 900,
//	    "noise_amp": 12
//	  },
//	  "duration_s": 10,
//	  "probe_s": 2.5,
//	  "apps": ["3l-mf", "3l-mmd"],
//	  "archs": ["sc", "mc"]
//	}
//
// A "sync" stanza declares custom sync-architecture descriptors (hardware
// sync-unit configurations, see power.Arch) and names them for use in
// "archs" — alongside the built-in "sc", "mc" and "mc-nosync" presets:
//
//	"sync": [
//	  {
//	    "name": "split-pipeline",
//	    "groups": ["0x0F", "0x18"],
//	    "timeout_cycles": 50000000
//	  }
//	],
//	"archs": ["sc", "mc", "split-pipeline"]
//
// Each entry defines a multi-core sync-unit descriptor: "groups" lists the
// per-group core membership masks (hex strings or numbers; omitted means
// the single implicit all-core barrier) and "timeout_cycles" arms the
// per-core sync timeout (0 disables it). Names are registered process-wide
// (power.RegisterArch): re-declaring the same binding is idempotent,
// renaming a different descriptor to a taken name is an error.
//
// Omitted signal fields take the kind's defaults; omitted durations the
// experiment defaults; omitted apps/archs the full paper grid. Unknown
// fields are rejected — a typoed knob must not silently fall back. One
// deliberate exception, inherited from signal.Config's comparable-cache-key
// representation: a zero sample_rate_hz, event_rate_hz, amplitude or
// noise_amp means "kind default" (use a small non-zero noise_amp for a
// near-noiseless record); seed is a pointer field, so an explicit 0 is a
// valid seed. An apps entry, or an archs entry's descriptor, that repeats
// an earlier one is rejected too: every consumer would run it twice.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/apps"
	"repro/internal/exp"
	"repro/internal/power"
	"repro/internal/signal"
)

// Scenario is one loaded and validated experiment scenario.
type Scenario struct {
	Name        string
	Description string
	// Signal is the validated, normalized base signal configuration.
	Signal signal.Config
	// DurationS is the simulated measurement time per grid cell, seconds.
	DurationS float64
	// ProbeS is the simulated time per operating-point probe, seconds.
	ProbeS float64
	// Apps lists the benchmark applications the scenario exercises.
	Apps []string
	// Archs lists the architecture variants solved per application.
	Archs []power.Arch
}

// fileFormat is the on-disk schema. Pointer fields distinguish "omitted"
// from an explicit zero.
type fileFormat struct {
	Name        string       `json:"name"`
	Description string       `json:"description"`
	Signal      signalFormat `json:"signal"`
	DurationS   *float64     `json:"duration_s"`
	ProbeS      *float64     `json:"probe_s"`
	Apps        []string     `json:"apps"`
	Archs       []string     `json:"archs"`
	Sync        []syncFormat `json:"sync"`
}

// syncFormat declares one custom sync-architecture descriptor.
type syncFormat struct {
	Name          string     `json:"name"`
	Groups        []maskWord `json:"groups"`
	TimeoutCycles uint64     `json:"timeout_cycles"`
}

// maskWord is a core-membership bitmask that reads as either a JSON number
// or a string in any Go integer syntax ("0x0F" being the natural spelling).
type maskWord uint8

func (m *maskWord) UnmarshalJSON(data []byte) error {
	var s string
	if err := json.Unmarshal(data, &s); err == nil {
		v, err := strconv.ParseUint(strings.TrimSpace(s), 0, 8)
		if err != nil {
			return fmt.Errorf("bad group mask %q: %w", s, err)
		}
		*m = maskWord(v)
		return nil
	}
	var v uint8
	if err := json.Unmarshal(data, &v); err != nil {
		return fmt.Errorf("group mask %s is neither a number nor a mask string", data)
	}
	*m = maskWord(v)
	return nil
}

type signalFormat struct {
	Kind         string  `json:"kind"`
	SampleRateHz float64 `json:"sample_rate_hz"`
	RateDiv      []int   `json:"rate_div"`
	// Seed is a pointer so an explicit 0 (a valid generator seed) is
	// distinguishable from an omitted field (which defaults to 1, the
	// experiment default).
	Seed             *int64  `json:"seed"`
	PathologicalFrac float64 `json:"pathological_frac"`
	EventRateHz      float64 `json:"event_rate_hz"`
	Amplitude        float64 `json:"amplitude"`
	NoiseAmp         float64 `json:"noise_amp"`
}

// registerSync validates one "sync" stanza entry and registers it with the
// process-wide descriptor registry, so "archs" (and the CLIs' -sync flag)
// can select it by name.
func registerSync(sf syncFormat) error {
	if sf.Name == "" {
		return fmt.Errorf("sync descriptor missing \"name\"")
	}
	if strings.ContainsAny(sf.Name, " \t\n,=") {
		return fmt.Errorf("sync descriptor name %q contains whitespace or spec punctuation", sf.Name)
	}
	if len(sf.Groups) > power.MaxSyncGroups {
		return fmt.Errorf("sync descriptor %q declares %d groups, the hardware supports %d",
			sf.Name, len(sf.Groups), power.MaxSyncGroups)
	}
	a := power.Arch{Multi: true, TimeoutCycles: sf.TimeoutCycles}
	for g, m := range sf.Groups {
		a.Groups[g] = uint8(m)
	}
	if err := a.Validate(); err != nil {
		return fmt.Errorf("sync descriptor %q: %w", sf.Name, err)
	}
	return power.RegisterArch(sf.Name, a)
}

// Load reads and validates one scenario file.
func Load(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("scenario: %w", err)
	}
	defer f.Close()
	s, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("scenario %s: %w", filepath.Base(path), err)
	}
	return s, nil
}

// Parse reads and validates one scenario from r.
func Parse(r io.Reader) (*Scenario, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	// Strict decoding rejects unknown fields but silently keeps the last of
	// two duplicate keys — a typo'd override would lose without a trace, so
	// duplicates are rejected first, with the offending path and position.
	if err := checkDuplicateKeys(data); err != nil {
		return nil, err
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var ff fileFormat
	if err := dec.Decode(&ff); err != nil {
		return nil, err
	}
	if ff.Name == "" {
		return nil, fmt.Errorf("missing \"name\"")
	}
	if strings.ContainsAny(ff.Name, " \t\n") {
		return nil, fmt.Errorf("name %q contains whitespace", ff.Name)
	}

	cfg := signal.Config{
		Kind:             signal.Kind(ff.Signal.Kind),
		SampleRateHz:     ff.Signal.SampleRateHz,
		Seed:             1,
		PathologicalFrac: ff.Signal.PathologicalFrac,
		EventRateHz:      ff.Signal.EventRateHz,
		Amplitude:        ff.Signal.Amplitude,
		NoiseAmp:         ff.Signal.NoiseAmp,
	}
	if ff.Signal.Seed != nil {
		cfg.Seed = *ff.Signal.Seed
	}
	if len(ff.Signal.RateDiv) > signal.MaxChannels {
		return nil, fmt.Errorf("rate_div has %d entries, the platform ADC has %d channels",
			len(ff.Signal.RateDiv), signal.MaxChannels)
	}
	copy(cfg.RateDiv[:], ff.Signal.RateDiv)
	cfg, err = signal.Normalize(cfg)
	if err != nil {
		return nil, err
	}

	for _, sf := range ff.Sync {
		if err := registerSync(sf); err != nil {
			return nil, err
		}
	}

	s := &Scenario{
		Name:        ff.Name,
		Description: ff.Description,
		Signal:      cfg,
		DurationS:   10,
		ProbeS:      2.5,
		Apps:        ff.Apps,
		Archs:       power.PaperArchs(),
	}
	if ff.DurationS != nil {
		s.DurationS = *ff.DurationS
	}
	if ff.ProbeS != nil {
		s.ProbeS = *ff.ProbeS
	}
	if s.DurationS <= 0 || s.ProbeS <= 0 {
		return nil, fmt.Errorf("non-positive duration_s (%v) or probe_s (%v)", s.DurationS, s.ProbeS)
	}
	if len(s.Apps) == 0 {
		s.Apps = append([]string(nil), apps.Names...)
	}
	for i, app := range s.Apps {
		known := false
		for _, n := range apps.Names {
			known = known || n == app
		}
		if !known {
			return nil, fmt.Errorf("apps[%d]: unknown app %q (known: %v)", i, app, apps.Names)
		}
		if j := slices.Index(s.Apps[:i], app); j >= 0 {
			return nil, fmt.Errorf("apps[%d] repeats apps[%d]: list each app once", i, j)
		}
	}
	if len(ff.Archs) > 0 {
		s.Archs = s.Archs[:0]
		for i, name := range ff.Archs {
			arch, err := power.ParseArchSpec(name)
			if err != nil {
				return nil, fmt.Errorf("archs[%d]: %w", i, err)
			}
			if j := slices.IndexFunc(s.Archs, func(b power.Arch) bool { return b.Key() == arch.Key() }); j >= 0 {
				return nil, fmt.Errorf("archs[%d] repeats archs[%d]: list each sync-unit descriptor once", i, j)
			}
			s.Archs = append(s.Archs, arch)
		}
	}
	return s, nil
}

// checkDuplicateKeys walks the document's token stream and rejects objects
// that bind the same key twice, reporting the dotted path and byte offset of
// the second binding.
func checkDuplicateKeys(data []byte) error {
	dec := json.NewDecoder(bytes.NewReader(data))
	if err := checkDupValue(dec, nil); err != nil {
		return err
	}
	// Trailing garbage after the document is the strict decoder's problem.
	return nil
}

// checkDupValue consumes one JSON value from dec, recursing into containers.
// path holds the dotted location of the value being read.
func checkDupValue(dec *json.Decoder, path []string) error {
	tok, err := dec.Token()
	if err != nil {
		return err
	}
	delim, ok := tok.(json.Delim)
	if !ok {
		return nil // scalar
	}
	switch delim {
	case '{':
		seen := map[string]bool{}
		for dec.More() {
			keyTok, err := dec.Token()
			if err != nil {
				return err
			}
			key, _ := keyTok.(string)
			if seen[key] {
				return fmt.Errorf("duplicate key %q at byte %d (the first binding would be silently overridden)",
					strings.Join(append(path, key), "."), dec.InputOffset())
			}
			seen[key] = true
			if err := checkDupValue(dec, append(path, key)); err != nil {
				return err
			}
		}
		_, err = dec.Token() // consume '}'
		return err
	case '[':
		for i := 0; dec.More(); i++ {
			if err := checkDupValue(dec, append(path, fmt.Sprintf("[%d]", i))); err != nil {
				return err
			}
		}
		_, err = dec.Token() // consume ']'
		return err
	}
	return nil
}

// Options converts the scenario into experiment options. Seed and
// PathoFrac are lifted out of the signal configuration because they are
// exp's sweep axes (exp.Options re-applies them onto Source).
func (s *Scenario) Options() exp.Options {
	return exp.Options{
		Duration:      s.DurationS,
		ProbeDuration: s.ProbeS,
		PathoFrac:     s.Signal.PathologicalFrac,
		Seed:          s.Signal.Seed,
		Source:        s.Signal,
		Scenario:      s.Name,
	}
}

// Points builds the scenario's (app x arch) experiment grid under opts
// (usually s.Options(), possibly with Exact or durations overridden).
func (s *Scenario) Points(opts exp.Options) []exp.Point {
	return exp.Grid(s.Apps, s.Archs, opts)
}
