package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/isa"
)

func TestTimelineRing(t *testing.T) {
	tl := NewTimeline(4)
	for i := 0; i < 3; i++ {
		tl.append(Event{Cycle: uint64(i)})
	}
	if tl.Len() != 3 || tl.Dropped() != 0 {
		t.Fatalf("len=%d dropped=%d, want 3/0", tl.Len(), tl.Dropped())
	}
	for i := 3; i < 10; i++ {
		tl.append(Event{Cycle: uint64(i)})
	}
	if tl.Len() != 4 {
		t.Fatalf("len=%d, want capacity 4", tl.Len())
	}
	if tl.Dropped() != 6 {
		t.Fatalf("dropped=%d, want 6", tl.Dropped())
	}
	evs := tl.Events()
	for i, ev := range evs {
		if want := uint64(6 + i); ev.Cycle != want {
			t.Fatalf("event %d cycle=%d, want %d (most recent window)", i, ev.Cycle, want)
		}
	}
	tl.Reset()
	if tl.Len() != 0 || tl.Dropped() != 0 || len(tl.Events()) != 0 {
		t.Fatalf("reset did not clear the ring")
	}
}

func TestRegistryCountersAndHists(t *testing.T) {
	r := NewRegistry()
	r.Add("b.count", 2)
	r.Add("a.count", 1)
	r.Add("b.count", 3)
	if got := r.Counter("b.count"); got != 5 {
		t.Fatalf("b.count=%d, want 5", got)
	}
	for _, v := range []uint64{1, 2, 3, 1024} {
		r.Observe("h.cycles", v)
	}
	h, ok := r.Histogram("h.cycles")
	if !ok {
		t.Fatal("histogram missing")
	}
	if h.Count != 4 || h.Sum != 1030 || h.Min != 1 || h.Max != 1024 {
		t.Fatalf("hist summary = %+v", h)
	}
	// v=1 -> bit length 1; v=2,3 -> 2; v=1024 -> 11.
	if h.Buckets[1] != 1 || h.Buckets[2] != 2 || h.Buckets[11] != 1 {
		t.Fatalf("hist buckets = %v", h.Buckets[:12])
	}
}

func TestRegistryWriteTextSortedDeterministic(t *testing.T) {
	r := NewRegistry()
	r.Add("z.last", 1)
	r.Add("a.first", 2)
	r.Observe("m.hist", 7)
	var b1, b2 bytes.Buffer
	if err := r.WriteText(&b1, "stats "); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteText(&b2, "stats "); err != nil {
		t.Fatal(err)
	}
	if b1.String() != b2.String() {
		t.Fatalf("WriteText not deterministic:\n%q\n%q", b1.String(), b2.String())
	}
	want := "stats a.first 2\nstats z.last 1\nstats m.hist count=1 sum=7 min=7 max=7\n"
	if b1.String() != want {
		t.Fatalf("WriteText = %q, want %q", b1.String(), want)
	}
}

func TestRegistryWriteJSONStable(t *testing.T) {
	r := NewRegistry()
	r.Add("runs", 3)
	r.Observe("leap.cycles", 100)
	r.Observe("leap.cycles", 5)
	var b1, b2 bytes.Buffer
	if err := r.WriteJSON(&b1); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteJSON(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Fatal("WriteJSON not byte-stable across calls")
	}
	var doc struct {
		Counters   map[string]uint64 `json:"counters"`
		Histograms map[string]struct {
			Count   uint64      `json:"count"`
			Buckets [][2]uint64 `json:"buckets"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(b1.Bytes(), &doc); err != nil {
		t.Fatalf("invalid metrics JSON: %v", err)
	}
	if doc.Counters["runs"] != 3 {
		t.Fatalf("counters = %v", doc.Counters)
	}
	h := doc.Histograms["leap.cycles"]
	if h.Count != 2 || len(h.Buckets) != 2 {
		t.Fatalf("histogram export = %+v", h)
	}
	for i := 1; i < len(h.Buckets); i++ {
		if h.Buckets[i][0] <= h.Buckets[i-1][0] {
			t.Fatalf("bucket bounds not ascending: %v", h.Buckets)
		}
	}
}

func TestSinkRecordsAndNilSafe(t *testing.T) {
	var nilSink *Sink
	// Every method must tolerate a nil receiver (the disabled path).
	nilSink.Instant(KindWake, TrackCore, 0, 1, 0, 0)
	nilSink.Span(KindIdleLeap, TrackEngine, 0, 1, 10, 0, 0)
	nilSink.Phase("probe", 0, 10, 0)
	nilSink.Add("c", 1)
	nilSink.Observe("h", 1)
	if nilSink.Events() != nil || nilSink.Timeline() != nil || nilSink.Registry() != nil {
		t.Fatal("nil sink accessors must return nil")
	}

	s := NewSink(NewTimeline(16), NewRegistry())
	s.Instant(KindWake, TrackCore, 2, 100, 0, 0)
	s.Span(KindBlockStride, TrackEngine, 0, 200, 64, 8, 2)
	s.Phase("probe ecg/MC", 0, 300, 0)
	s.Add("engine.block.mc_strides", 1)
	s.Observe("engine.block_stride_cycles", 64)
	evs := s.Events()
	if len(evs) != 3 {
		t.Fatalf("got %d events, want 3", len(evs))
	}
	if evs[0].Kind != KindWake || evs[0].ID != 2 || evs[0].Cycle != 100 {
		t.Fatalf("instant = %+v", evs[0])
	}
	if evs[1].Dur != 64 || evs[1].Arg1 != 8 {
		t.Fatalf("span = %+v", evs[1])
	}
	if evs[2].Label != "probe ecg/MC" || evs[2].Track != TrackSession {
		t.Fatalf("phase = %+v", evs[2])
	}
	if s.Registry().Counter("engine.block.mc_strides") != 1 {
		t.Fatal("registry counter not recorded")
	}
}

func TestNilSinkZeroAlloc(t *testing.T) {
	var s *Sink
	n := testing.AllocsPerRun(1000, func() {
		s.Instant(KindWake, TrackCore, 0, 1, 0, 0)
		s.Span(KindIdleLeap, TrackEngine, 0, 1, 10, 0, 0)
		s.Add("x", 1)
		s.Observe("x", 1)
	})
	if n != 0 {
		t.Fatalf("nil-sink emits allocated %v per run, want 0", n)
	}
}

func TestChromeTraceSchema(t *testing.T) {
	s := NewSink(NewTimeline(64), nil)
	// Deliberately out of order across tracks; same-cycle events keep order.
	s.Instant(KindSleep, TrackCore, 1, 50, 0, 0)
	s.Instant(KindBarrierArrive, TrackSync, 0, 50, 3, 1)
	s.Span(KindIdleLeap, TrackEngine, 0, 51, 100, 0, 0)
	s.Instant(KindBarrierRelease, TrackSync, 0, 151, 3, 0b11)
	s.Instant(KindWake, TrackCore, 1, 151, 0, 0)
	s.Instant(KindADCSample, TrackADC, 2, 160, 1, 0)
	s.Instant(KindSyncOp, TrackCore, 1, 170, int64(isa.OpSDEC), 3)
	s.Instant(KindCoreState, TrackCore, 1, 171, StateBubble, 0)
	s.Phase("measure ecg/MC", 0, 200, 0)

	var buf bytes.Buffer
	if err := WriteChromeTrace(&buf, s.Events()); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []struct {
			Name  string         `json:"name"`
			Phase string         `json:"ph"`
			Pid   int            `json:"pid"`
			Tid   int            `json:"tid"`
			Ts    uint64         `json:"ts"`
			Dur   *uint64        `json:"dur"`
			Args  map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("export is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Fatal("empty traceEvents")
	}

	lastTs := uint64(0)
	var sawMetaProc, sawMetaThread bool
	names := map[string]bool{}
	for _, te := range doc.TraceEvents {
		switch te.Phase {
		case "M":
			name, _ := te.Args["name"].(string)
			if te.Name == "process_name" {
				sawMetaProc = true
			}
			if te.Name == "thread_name" {
				sawMetaThread = true
				names[name] = true
			}
		case "X", "i":
			if te.Ts < lastTs {
				t.Fatalf("timestamps not monotone: %d after %d", te.Ts, lastTs)
			}
			lastTs = te.Ts
			if te.Phase == "X" && te.Dur == nil {
				t.Fatalf("span %q missing dur", te.Name)
			}
		default:
			t.Fatalf("unexpected phase %q", te.Phase)
		}
	}
	if !sawMetaProc || !sawMetaThread {
		t.Fatal("missing process_name/thread_name metadata")
	}
	for _, want := range []string{"core 1", "sync 0", "adc 2", "engine 0", "session 0"} {
		if !names[want] {
			t.Fatalf("missing thread_name %q in %v", want, names)
		}
	}
	// Track families map to distinct pids, rows to tids.
	exported := map[string]bool{}
	for _, te := range doc.TraceEvents {
		exported[te.Name] = true
		if te.Name == "barrier-arrive" && (te.Pid != trackPid(TrackSync) || te.Tid != 0) {
			t.Fatalf("barrier-arrive on pid=%d tid=%d", te.Pid, te.Tid)
		}
		if te.Name == "sleep" && (te.Pid != trackPid(TrackCore) || te.Tid != 1) {
			t.Fatalf("sleep on pid=%d tid=%d", te.Pid, te.Tid)
		}
		if te.Name == "sync-op" && (te.Args["op"] != "sdec" || te.Args["operand"] != 3.0) {
			t.Fatalf("sync-op args = %v", te.Args)
		}
		if te.Name == "core-state" && te.Args["state"] != "bubble" {
			t.Fatalf("core-state args = %v", te.Args)
		}
	}
	if !exported["sync-op"] || !exported["core-state"] {
		t.Fatal("exact-cycle events missing from the export")
	}
	if strings.Count(buf.String(), "idle-leap") != 1 {
		t.Fatal("idle leap must export as a single span event")
	}
}
