package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"os"
	"strings"

	"repro/internal/apps"
	"repro/internal/exp"
	"repro/internal/power"
)

// ref holds every batch cell's row at seed 1, pinned from an exact
// (fast-paths-off) run with -pin. The paper file equals the rows of
// wbsn-bench -experiment all -format json.
//
//go:embed ref/*.json
var ref embed.FS

// defaultSeed is the seed the references were pinned at and the CLIs'
// default.
const defaultSeed = 1

// refCell is one line of a reference file: a cell's row as compact JSON, or
// the error the exact run reported for it.
type refCell struct {
	Cell  string          `json:"cell"`
	Row   json.RawMessage `json:"row,omitempty"`
	Error string          `json:"error,omitempty"`
}

func writeRefs(path string, refs []refCell) error {
	var buf bytes.Buffer
	buf.WriteString("[\n")
	for i, r := range refs {
		line, err := json.Marshal(r)
		if err != nil {
			return err
		}
		buf.Write(line)
		if i < len(refs)-1 {
			buf.WriteByte(',')
		}
		buf.WriteByte('\n')
	}
	buf.WriteString("]\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func readRefs(workload string) (map[string]refCell, error) {
	data, err := ref.ReadFile("ref/" + workload + ".json")
	if err != nil {
		return nil, err
	}
	var refs []refCell
	if err := json.Unmarshal(data, &refs); err != nil {
		return nil, fmt.Errorf("ref/%s.json: %w", workload, err)
	}
	out := make(map[string]refCell, len(refs))
	for _, r := range refs {
		out[r.Cell] = r
	}
	return out, nil
}

// checker verifies a pass's rows. A row that differs from the pinned
// reference at the default seed, or is not even plausible, makes the run
// incorrect. A row that breaks one of the invariants the repository's tests
// pin for the paper configuration fails its operation: away from the
// tested seed the model itself may move (a signal whose demand needs more
// than the 1 MHz floor), and that is a finding about the model, not a
// wrong output.
type checker struct {
	pr   *passResult
	refs map[string]refCell // nil away from the default seed

	// defaultECG holds the rows of the paper's configuration (250 Hz ECG,
	// 20 % pathological beats) by "app/arch": Table I's cells, the
	// ecg-default scenario's, or the served cells.
	defaultECG map[string]checkedRow
	split      []checkedRow // rows of splitScenario
}

// checkedRow is a row with the id of the operation that produced it, which
// a failed cross-cell check is charged to.
type checkedRow struct {
	id string
	exp.PointJSON
}

// splitScenario runs 3L-MMD under a custom sync descriptor that must solve
// to the same operating point as the paper's MC column.
const splitScenario = "ecg-split-sync"

// newChecker checks against ref/<name>.json at the default seed.
func newChecker(pr *passResult, name string, seed int64) (*checker, error) {
	c := &checker{pr: pr, defaultECG: map[string]checkedRow{}}
	if seed == defaultSeed {
		refs, err := readRefs(name)
		if err != nil {
			return nil, err
		}
		c.refs = refs
	}
	return c, nil
}

// row checks one operation's row. id names the operation, refID the
// reference entry.
func (c *checker) row(id, refID string, row exp.PointJSON) {
	if c.refs != nil {
		got, err := json.Marshal(row)
		switch r, ok := c.refs[refID]; {
		case err != nil:
			c.pr.mismatch(id, err)
		case !ok:
			c.pr.mismatch(id, fmt.Errorf("no reference row"))
		case r.Error != "":
			c.pr.mismatch(id, fmt.Errorf("reference run failed (%s) but this one did not", r.Error))
		case !bytes.Equal(got, r.Row):
			c.pr.mismatch(id, fmt.Errorf("row differs from the reference:\n  got  %s\n  want %s", got, r.Row))
		}
	}
	if row.FreqMHz < power.MinClockHz/1e6 || row.VoltageV <= 0 || row.PowerUW <= 0 || row.Cycles == 0 {
		c.pr.mismatch(id, fmt.Errorf("implausible row: %.3f MHz, %.2f V, %.2f uW, %d cycles",
			row.FreqMHz, row.VoltageV, row.PowerUW, row.Cycles))
	}
	if row.Scenario == splitScenario {
		c.split = append(c.split, checkedRow{id, row})
	}
	if row.Scenario != "" && row.Scenario != "ecg-default" {
		return
	}
	if err := paperInvariant(row); err != nil {
		c.pr.fail(id, err)
	}
	if row.PathoPct == 20 {
		c.defaultECG[row.App+"/"+row.Arch] = checkedRow{id, row}
	}
}

// paperInvariant is the operating point the repository's tests pin for the
// paper configuration: MC at 1.0 MHz / 0.5 V, SC at 0.6 V above MC's clock,
// and MC-nosync above MC's clock.
func paperInvariant(row exp.PointJSON) error {
	mc := power.MinClockHz / 1e6
	switch row.Arch {
	case power.MC.String():
		if row.FreqMHz != mc || row.VoltageV != 0.5 {
			return fmt.Errorf("MC at %.2f MHz / %.2f V, want 1.0 MHz / 0.5 V", row.FreqMHz, row.VoltageV)
		}
	case power.SC.String():
		if row.FreqMHz <= mc || row.VoltageV != 0.6 {
			return fmt.Errorf("SC at %.2f MHz / %.2f V, want 0.6 V above 1.0 MHz", row.FreqMHz, row.VoltageV)
		}
	case power.MCNoSync.String():
		if row.FreqMHz <= mc {
			return fmt.Errorf("MC-nosync at %.2f MHz, want above MC's 1.0 MHz", row.FreqMHz)
		}
	}
	return nil
}

// saving is MC's power saving over SC for app, in percent, and the id of
// the MC row.
func saving(rows map[string]checkedRow, app string) (float64, string, bool) {
	sc, ok1 := rows[app+"/"+power.SC.String()]
	mc, ok2 := rows[app+"/"+power.MC.String()]
	if !ok1 || !ok2 {
		return 0, "", false
	}
	return 100 * (1 - mc.PowerUW/sc.PowerUW), mc.id, true
}

// finish applies the checks that span cells; the 3L-MF saving band is
// pinned by the exp tests.
func (c *checker) finish() {
	if s, id, ok := saving(c.defaultECG, apps.MF3L); ok && (s < 25 || s > 55) {
		c.pr.fail(id, fmt.Errorf("3L-MF saving %.1f %%, want 25..55 %%", s))
	}
	for _, r := range c.split {
		if m := c.split[0]; r.FreqMHz != m.FreqMHz || r.VoltageV != m.VoltageV {
			c.pr.fail(r.id, fmt.Errorf("%s solves to %.2f MHz / %.2f V, %s to %.2f MHz / %.2f V",
				r.Arch, r.FreqMHz, r.VoltageV, m.Arch, m.FreqMHz, m.VoltageV))
		}
	}
}

// Paper values the repository quotes (DATE 2014, Table I).
const (
	paperMFSavingPct = 40.7
	paperMCMHz       = 1.0
	paperMCVolt      = 0.5
	paperRPSCMHz     = 3.3
)

// accuracyLines compares the model with the paper values the repository
// quotes. Informational: nothing is gated on them.
func accuracyLines(rows map[string]checkedRow) []string {
	out := []string{"accuracy (informational, not gated; every other output of the model is unvalidated against the paper):"}
	if s, _, ok := saving(rows, apps.MF3L); ok {
		out = append(out, fmt.Sprintf("  3L-MF MC saving over SC: %.1f %% (paper %.1f %%, error %+.1f pp)", s, paperMFSavingPct, s-paperMFSavingPct))
	}
	var mcs []string
	for _, app := range apps.Names {
		if mc, ok := rows[app+"/"+power.MC.String()]; ok {
			mcs = append(mcs, fmt.Sprintf("%s %.1f MHz / %.1f V", app, mc.FreqMHz, mc.VoltageV))
		}
	}
	if len(mcs) > 0 {
		out = append(out, fmt.Sprintf("  MC operating point: %s (paper %.1f MHz / %.1f V on all three)", strings.Join(mcs, ", "), paperMCMHz, paperMCVolt))
	}
	if sc, ok := rows[apps.RPClass+"/"+power.SC.String()]; ok {
		out = append(out, fmt.Sprintf("  RP-CLASS SC clock: %.2f MHz (paper %.1f MHz, error %+.1f %%)", sc.FreqMHz, paperRPSCMHz, 100*(sc.FreqMHz/paperRPSCMHz-1)))
	}
	return out
}
