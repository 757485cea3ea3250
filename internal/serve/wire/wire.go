// Package wire defines the serving layer's HTTP/JSON request and response
// shapes and the canonical request identity they are coalesced and stored
// under. Responses are plain structs marshaled with encoding/json — field
// order is fixed by the struct, keys are stable — so an identical request
// always yields byte-identical response bodies, which is the service's
// determinism contract (see docs/SERVE.md).
package wire

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"repro/internal/exp"
	"repro/internal/power"
)

// SolveRequest asks for the operating point of one (scenario, app, arch)
// cell: the minimum real-time clock frequency and the minimum voltage
// sustaining it. Scenario selects a bundled scenario by name (empty means
// the paper's default ECG configuration); the remaining optional fields
// override the scenario's values.
type SolveRequest struct {
	Scenario string `json:"scenario,omitempty"`
	App      string `json:"app"`
	// Arch is an architecture spec: a registered descriptor name ("sc",
	// "mc", "mc-nosync", a scenario-registered custom name) or a structural
	// spec like "multi,groups=0x0F+0x18,timeout=50000000".
	Arch string `json:"arch"`
	// DurationS overrides the simulated measurement duration (seconds).
	// It participates in solve identities only through the synthesized
	// record length; /v1/measure runs it in full.
	DurationS float64 `json:"duration_s,omitempty"`
	// ProbeS overrides the simulated probe/verification window (seconds).
	ProbeS float64 `json:"probe_s,omitempty"`
	// Seed overrides the synthetic-record seed (pointer: 0 is a valid seed).
	Seed *int64 `json:"seed,omitempty"`
	// PathoFrac overrides the pathological-event share in [0, 1].
	PathoFrac *float64 `json:"pathological_frac,omitempty"`
	// Exact disables every simulator fast path: idle fast-forward, block
	// runs and strides (bit-identical results, slower; a cross-check
	// knob).
	Exact bool `json:"exact,omitempty"`
}

// SolveResponse is the solved operating point. Key is the content address
// (hex SHA-256 of the canonical request identity) the result is stored and
// coalesced under.
type SolveResponse struct {
	Key      string  `json:"key"`
	Scenario string  `json:"scenario,omitempty"`
	App      string  `json:"app"`
	Arch     string  `json:"arch"`
	FreqHz   float64 `json:"freq_hz"`
	FreqMHz  float64 `json:"freq_mhz"`
	VoltageV float64 `json:"voltage_v"`
}

// MeasureRequest asks for a full solve-and-measure of one cell: the
// operating point plus the calibrated power report over the measurement
// duration. A measurement the session or its store already holds is
// answered without simulating.
type MeasureRequest = SolveRequest

// MeasureResponse is the measured cell: the solved point and the metrics
// row the paper's tables are built from.
type MeasureResponse struct {
	Key   string        `json:"key"`
	Point exp.PointJSON `json:"point"`
}

// SweepRequest asks for a whole (apps x archs) grid, solved and measured
// through the parallel sweep engine. Apps and Archs default to the
// scenario's lists (or the full paper grid without a scenario).
type SweepRequest struct {
	Scenario  string   `json:"scenario,omitempty"`
	Apps      []string `json:"apps,omitempty"`
	Archs     []string `json:"archs,omitempty"`
	DurationS float64  `json:"duration_s,omitempty"`
	ProbeS    float64  `json:"probe_s,omitempty"`
	Seed      *int64   `json:"seed,omitempty"`
	PathoFrac *float64 `json:"pathological_frac,omitempty"`
	Exact     bool     `json:"exact,omitempty"`
}

// SweepResponse is the solved grid, one row per cell in grid order
// (deterministic for any server worker count).
type SweepResponse struct {
	Key  string          `json:"key"`
	Rows []exp.PointJSON `json:"rows"`
}

// ErrorResponse is the body of every non-2xx response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// CanonicalKey serializes the full identity of a resolved request:
// everything its response bytes depend on. endpoint keeps solve, measure
// and sweep results from aliasing; the architecture contributes its
// canonical descriptor Key (structurally equal customs share identities);
// the options contribute the normalized signal source and every solver
// knob. Identical concurrent requests coalesce on this string, and the
// content-addressed store files results under its SHA-256.
func CanonicalKey(endpoint, scenario, app string, arch power.Arch, o exp.Options) string {
	return fmt.Sprintf("%s|scenario=%s|app=%s|arch=%s|src=%+v|seed=%d|patho=%v|dur=%v|probe=%v|exact=%v",
		endpoint, scenario, app, arch.Key(), o.Source, o.Seed, o.PathoFrac, o.Duration, o.ProbeDuration, o.Exact)
}

// SweepCanonicalKey is CanonicalKey's grid form: the identity of a whole
// (apps x archs) sweep, in grid order.
func SweepCanonicalKey(scenario string, appNames []string, archs []power.Arch, o exp.Options) string {
	keys := make([]string, 0, len(archs))
	for _, a := range archs {
		keys = append(keys, a.Key())
	}
	return fmt.Sprintf("sweep|scenario=%s|apps=%v|archs=%v|src=%+v|seed=%d|patho=%v|dur=%v|probe=%v|exact=%v",
		scenario, appNames, keys, o.Source, o.Seed, o.PathoFrac, o.Duration, o.ProbeDuration, o.Exact)
}

// Hash returns the content address of a canonical key: its hex SHA-256.
func Hash(key string) string {
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:])
}
