package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"repro/internal/isa"
)

// The Chrome trace-event export maps the timeline onto Perfetto's
// process/thread grid: each Track family is one "process" and each row ID
// one "thread", so Perfetto renders one track per core, one per sync
// group, plus ADC-channel, engine and session tracks. Timestamps are
// simulated cycles written into the ts/dur microsecond fields — the
// viewer's "us" axis reads directly as cycles.

// trackPid maps a Track family to its synthetic process id (index by
// Track; pids start at 1 because pid 0 renders poorly in viewers).
func trackPid(t Track) int { return int(t) + 1 }

// traceEvent is one entry of the Chrome trace-event JSON array.
type traceEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	Pid   int            `json:"pid"`
	Tid   int            `json:"tid"`
	Ts    uint64         `json:"ts"`
	Dur   *uint64        `json:"dur,omitempty"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// eventArgs names the kind-specific Arg1/Arg2 payload for the viewer.
func eventArgs(ev Event) map[string]any {
	switch ev.Kind {
	case KindBarrierArrive:
		return map[string]any{"point": ev.Arg1, "core": ev.Arg2}
	case KindBarrierRelease:
		return map[string]any{"point": ev.Arg1, "released_mask": ev.Arg2}
	case KindTimeout:
		return map[string]any{"withdrawn_groups": ev.Arg1}
	case KindADCSample:
		return map[string]any{"samples": ev.Arg1}
	case KindBlockStride:
		return map[string]any{"instrs": ev.Arg1, "cores": ev.Arg2}
	case KindPhase:
		return map[string]any{"cycles": ev.Dur}
	case KindCoreState:
		return map[string]any{"state": stateNames[ev.Arg1]}
	case KindSyncOp:
		return map[string]any{"op": isa.Opcode(ev.Arg1).String(), "operand": ev.Arg2}
	default:
		return nil
	}
}

// eventName is the display name: the kind, or the phase label when set.
func eventName(ev Event) string {
	if ev.Kind == KindPhase && ev.Label != "" {
		return ev.Label
	}
	return ev.Kind.String()
}

// WriteChromeTrace writes events as a Chrome trace-event JSON document
// loadable in Perfetto or chrome://tracing. Events are stably sorted by
// cycle so timestamps are monotone even when several platforms shared the
// sink; metadata (process/thread names) is emitted for every track row
// that appears, in deterministic order.
func WriteChromeTrace(w io.Writer, events []Event) error {
	sorted := make([]Event, len(events))
	copy(sorted, events)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Cycle < sorted[j].Cycle })

	type row struct {
		pid, tid int
	}
	seen := make(map[row]Track)
	out := make([]traceEvent, 0, len(sorted)+16)
	for _, ev := range sorted {
		r := row{trackPid(ev.Track), int(ev.ID)}
		seen[r] = ev.Track
		te := traceEvent{
			Name: eventName(ev),
			Pid:  r.pid,
			Tid:  r.tid,
			Ts:   ev.Cycle,
			Args: eventArgs(ev),
		}
		if ev.Dur != 0 || ev.Kind == KindIdleLeap || ev.Kind == KindBlockStride || ev.Kind == KindPhase {
			dur := ev.Dur
			te.Phase = "X"
			te.Dur = &dur
		} else {
			te.Phase = "i"
			te.Scope = "t"
		}
		out = append(out, te)
	}

	rows := make([]row, 0, len(seen))
	for r := range seen {
		rows = append(rows, r)
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].pid != rows[j].pid {
			return rows[i].pid < rows[j].pid
		}
		return rows[i].tid < rows[j].tid
	})
	meta := make([]traceEvent, 0, 2*len(rows))
	lastPid := -1
	for _, r := range rows {
		tr := seen[r]
		if r.pid != lastPid {
			lastPid = r.pid
			meta = append(meta, traceEvent{
				Name: "process_name", Phase: "M", Pid: r.pid,
				Args: map[string]any{"name": tr.String()},
			})
		}
		meta = append(meta, traceEvent{
			Name: "thread_name", Phase: "M", Pid: r.pid, Tid: r.tid,
			Args: map[string]any{"name": fmt.Sprintf("%s %d", tr, r.tid)},
		})
	}

	doc := struct {
		TraceEvents []traceEvent `json:"traceEvents"`
	}{TraceEvents: append(meta, out...)}
	enc := json.NewEncoder(w)
	enc.SetIndent("", " ")
	return enc.Encode(doc)
}
