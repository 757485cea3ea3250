package platform_test

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/isa"
	"repro/internal/platform"
	"repro/internal/power"
	"repro/internal/signal"
)

// FuzzRestoreSnapshot overwrites one core's PC and bubble and the
// synchronizer's state, event-group and deadline fields for that core in a
// real mid-run 3L-MF snapshot with the fuzz inputs. The snapshots are taken
// on a sample instant, with the cores at work, and 6000 cycles later, with
// every core gated. It sends the snapshot through the file format, restores
// it and runs 10 000 cycles in fast and exact mode. Every input must end in
// an error or a clean run, never a panic, and a PC outside instruction
// memory must be an error.
func FuzzRestoreSnapshot(f *testing.F) {
	type cell struct {
		v    *apps.Variant
		src  *signal.Source
		snap *platform.Snapshot
	}
	var cells []cell
	src := snapSource(f, apps.MF3L)
	for _, spec := range []string{"mc", "multi,timeout=20000"} {
		arch, err := power.ParseArchSpec(spec)
		if err != nil {
			f.Fatal(err)
		}
		v, p := newSnapPlatform(f, apps.MF3L, arch, src, 2e6)
		for _, n := range []uint64{p.CyclesFor(0.1), 6000} {
			if err := p.Run(n); err != nil {
				f.Fatal(err)
			}
			cells = append(cells, cell{v, src, p.Snapshot()})
		}
	}
	for sel, cl := range cells {
		for c, cr := range cl.snap.Cores {
			st := cl.snap.Sync
			f.Add(uint8(sel), uint8(c), cr.PC, cr.Bubble, uint8(st.State[c]), st.EventGrp[c], st.EventWant[c], st.WakeAt[c], st.TimeoutAt[c])
		}
	}
	f.Add(uint8(0), uint8(0), 40000, 0, uint8(core.StateRunning), uint8(0), uint8(0), uint64(0), uint64(0))
	f.Add(uint8(0), uint8(1), -1, 0, uint8(core.StateRunning), uint8(0), uint8(0), uint64(0), uint64(0))
	f.Add(uint8(3), uint8(1), 0, 1<<40, uint8(7), uint8(200), uint8(1), uint64(1)<<63, uint64(1))
	f.Add(uint8(3), uint8(2), 0, 0, uint8(core.StateGated), uint8(0), uint8(1), uint64(0), uint64(1))

	f.Fuzz(func(t *testing.T, sel, who uint8, pc, bubble int, state, grp, want uint8, wakeAt, timeoutAt uint64) {
		cl := cells[int(sel)%len(cells)]
		s := *cl.snap
		s.Cores = slices.Clone(s.Cores)
		c := int(who) % len(s.Cores)
		s.Cores[c].PC, s.Cores[c].Bubble = pc, bubble
		s.Sync.State[c] = core.CoreState(state)
		s.Sync.EventGrp[c], s.Sync.EventWant[c] = grp, want
		s.Sync.WakeAt[c], s.Sync.TimeoutAt[c] = wakeAt, timeoutAt
		var buf bytes.Buffer
		if err := platform.WriteSnapshotFile(&buf, &platform.SnapshotFile{Snap: &s}); err != nil {
			t.Fatal(err)
		}
		file, err := platform.ReadSnapshotFile(&buf)
		if err != nil {
			t.Fatal(err)
		}
		for _, exact := range []bool{false, true} {
			p, err := cl.v.NewPlatform(cl.src, 2e6, 0.5)
			if err != nil {
				t.Fatal(err)
			}
			p.SetExact(exact)
			err = p.Restore(file.Snap)
			if err == nil && (pc < 0 || pc >= isa.IMWords) {
				t.Fatalf("Restore accepted core %d at PC %d, outside instruction memory", c, pc)
			}
			if err != nil {
				return
			}
			_ = p.Run(10_000)
		}
	})
}
