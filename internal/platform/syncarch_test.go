package platform

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/isa"
	"repro/internal/power"
)

// stallImage builds a two-core image whose consumer registers on point 0 and
// sleeps while the producer halts without ever releasing it: a permanently
// stalled wait. The consumer stores its pending-IRQ word on resume, so the
// tests can observe whether the sync-timeout IRQ recovered it.
const silentProducerSrc = `
.code producer
    halt
`

const stalledConsumerSrc = `
.equ PT, 0
.code consumer
    snop #PT
    sleep
    li   r4, 0x7F04    ; RegIRQPend
    lw   r1, 0(r4)
    li   r6, 40
    sw   r1, 0(r6)
    halt
`

func stallImage(t *testing.T) *Image {
	return buildImage(t, 0x2000, 1,
		[]string{silentProducerSrc, stalledConsumerSrc},
		[]int{0, isa.IMBankWords},
		[]DataSeg{{Base: 40, Words: []uint16{0}}})
}

func timeoutCfg() Config {
	return Config{
		Arch:    power.Arch{Multi: true, TimeoutCycles: 600},
		ClockHz: 1e6, VoltageV: 0.5,
	}
}

// TestSyncTimeoutRecoversStalledWait: under a descriptor with a timeout, the
// stalled consumer is recovered — woken with the sync-timeout IRQ latched,
// its registration withdrawn — and the run completes cleanly.
func TestSyncTimeoutRecoversStalledWait(t *testing.T) {
	p, err := New(timeoutCfg(), stallImage(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(5_000); err != nil {
		t.Fatal(err)
	}
	if !p.AllHalted() {
		t.Fatal("timeout recovery did not let the consumer finish")
	}
	pend, _ := p.PeekData(0, 40)
	if pend&isa.IRQSyncTimeout == 0 {
		t.Errorf("pending word = %#x, want the sync-timeout IRQ visible to the woken core", pend)
	}
	if got := p.Counters().SyncTimeouts; got != 1 {
		t.Errorf("SyncTimeouts = %d, want 1", got)
	}
	if v := p.Violations(); len(v) != 0 {
		t.Errorf("recoverable timeout recorded violations: %v", v)
	}
	if d := p.DeadlockDiagnosis(); d != "" {
		t.Errorf("halted platform diagnosed as deadlocked: %s", d)
	}
}

// TestMidTimeoutSnapshotRestore: a snapshot captured while a timeout
// deadline is armed restores and continues bit-identically to an
// uninterrupted run — the deadline fires at the same absolute cycle.
func TestMidTimeoutSnapshotRestore(t *testing.T) {
	straight, err := New(timeoutCfg(), stallImage(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := straight.Run(5_000); err != nil {
		t.Fatal(err)
	}

	first, err := New(timeoutCfg(), stallImage(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Run(100); err != nil {
		t.Fatal(err)
	}
	snap := first.Snapshot()
	if snap.Sync.TimeoutAt[1] == 0 {
		t.Fatal("snapshot was not taken mid-timeout (no armed deadline)")
	}
	resumed, err := New(timeoutCfg(), stallImage(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := resumed.Restore(snap); err != nil {
		t.Fatal(err)
	}
	if err := resumed.Run(5_000 - resumed.Cycle()); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(straight.Snapshot(), resumed.Snapshot()) {
		t.Error("mid-timeout restore diverged from the uninterrupted run")
	}
	if resumed.Counters().SyncTimeouts != 1 {
		t.Errorf("SyncTimeouts = %d after resume, want 1", resumed.Counters().SyncTimeouts)
	}
}

// TestMidTimeoutForkRebasesDeadline: forking to a different clock while a
// deadline is armed preserves the remaining cycle-denominated wait budget,
// and the forked run still recovers through the timeout.
func TestMidTimeoutForkRebasesDeadline(t *testing.T) {
	p, err := New(timeoutCfg(), stallImage(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(100); err != nil {
		t.Fatal(err)
	}
	remaining := p.sync.TimeoutDeadline(1) - p.Cycle()
	if remaining == 0 || remaining > 600 {
		t.Fatalf("test setup: remaining wait = %d, want an armed deadline", remaining)
	}
	cfg := p.Config()
	cfg.ClockHz = 2e6
	forked, err := p.Fork(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := forked.sync.TimeoutDeadline(1) - forked.Cycle(); got != remaining {
		t.Errorf("forked remaining wait = %d cycles, want %d carried over", got, remaining)
	}
	if err := forked.Run(5_000); err != nil {
		t.Fatal(err)
	}
	if !forked.AllHalted() || forked.Counters().SyncTimeouts != 1 {
		t.Errorf("forked run: halted=%v SyncTimeouts=%d, want recovery through the timeout",
			forked.AllHalted(), forked.Counters().SyncTimeouts)
	}
}

// TestDeadlockDiagnosis: the same stalled wait under a descriptor with no
// timeout never recovers; the platform must diagnose the wedge (gated cores,
// no wake source) and name the waiting core.
func TestDeadlockDiagnosis(t *testing.T) {
	p, err := New(mcCfg(), stallImage(t))
	if err != nil {
		t.Fatal(err)
	}
	if err := p.Run(5_000); err != nil {
		t.Fatal(err)
	}
	if p.AllHalted() {
		t.Fatal("test setup: the stalled wait should never complete without a timeout")
	}
	d := p.DeadlockDiagnosis()
	if d == "" {
		t.Fatal("wedged platform not diagnosed")
	}
	if !strings.Contains(d, "core 1") {
		t.Errorf("diagnosis %q does not name the waiting core", d)
	}
	if got := p.Counters().SyncTimeouts; got != 0 {
		t.Errorf("SyncTimeouts = %d without a timeout descriptor", got)
	}
}
