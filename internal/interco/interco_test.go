package interco

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"
)

func TestBroadcastMerge(t *testing.T) {
	x := NewCrossbar(8)
	reqs := []Request{
		{Core: 0, Bank: 2, Offset: 10},
		{Core: 1, Bank: 2, Offset: 10},
		{Core: 2, Bank: 2, Offset: 10},
	}
	res := x.Arbitrate(reqs)
	if res.Accesses != 1 || res.Merged != 2 || res.Stalled != 0 {
		t.Fatalf("res = %+v, want 1 access, 2 merged, 0 stalled", res)
	}
	for i, r := range reqs {
		if !r.Granted {
			t.Errorf("request %d not granted", i)
		}
	}
}

func TestConflictSerializes(t *testing.T) {
	x := NewCrossbar(8)
	reqs := []Request{
		{Core: 0, Bank: 2, Offset: 10},
		{Core: 1, Bank: 2, Offset: 11},
	}
	res := x.Arbitrate(reqs)
	if res.Accesses != 1 || res.Stalled != 1 {
		t.Fatalf("res = %+v, want 1 access 1 stall", res)
	}
	if !reqs[0].Granted || reqs[1].Granted {
		t.Error("rotating priority at cycle 0 should favor core 0")
	}
}

func TestRotatingPriorityIsFair(t *testing.T) {
	x := NewCrossbar(8)
	wins := map[int]int{}
	for cycle := 0; cycle < 64; cycle++ {
		reqs := []Request{
			{Core: 0, Bank: 1, Offset: 1},
			{Core: 1, Bank: 1, Offset: 2},
		}
		x.Arbitrate(reqs)
		for _, r := range reqs {
			if r.Granted {
				wins[r.Core]++
			}
		}
		x.Advance()
	}
	if wins[0] == 0 || wins[1] == 0 {
		t.Errorf("starvation: wins = %v", wins)
	}
}

func TestDifferentBanksNoConflict(t *testing.T) {
	x := NewCrossbar(8)
	reqs := []Request{
		{Core: 0, Bank: 0, Offset: 5},
		{Core: 1, Bank: 1, Offset: 5},
		{Core: 2, Bank: 2, Offset: 5},
	}
	res := x.Arbitrate(reqs)
	if res.Accesses != 3 || res.Stalled != 0 || res.Merged != 0 {
		t.Fatalf("res = %+v, want 3 independent accesses", res)
	}
}

func TestWritesNeverMerge(t *testing.T) {
	x := NewCrossbar(8)
	reqs := []Request{
		{Core: 0, Bank: 2, Offset: 10, Write: true},
		{Core: 1, Bank: 2, Offset: 10, Write: true},
	}
	res := x.Arbitrate(reqs)
	if res.Accesses != 1 || res.Stalled != 1 || res.Merged != 0 {
		t.Fatalf("res = %+v, want write serialization", res)
	}
}

func TestReadDoesNotMergeWithWrite(t *testing.T) {
	x := NewCrossbar(8)
	reqs := []Request{
		{Core: 0, Bank: 2, Offset: 10, Write: true},
		{Core: 1, Bank: 2, Offset: 10},
	}
	res := x.Arbitrate(reqs)
	if res.Stalled != 1 {
		t.Fatalf("res = %+v: a read must not merge with a write", res)
	}
	// And the other way around: a read winner does not grant a write.
	x2 := NewCrossbar(8)
	reqs2 := []Request{
		{Core: 0, Bank: 2, Offset: 10},
		{Core: 1, Bank: 2, Offset: 10, Write: true},
	}
	res2 := x2.Arbitrate(reqs2)
	if res2.Stalled != 1 || reqs2[1].Granted {
		t.Fatalf("res = %+v: a write must not ride a read broadcast", res2)
	}
}

func TestEmptyCycle(t *testing.T) {
	x := NewCrossbar(8)
	res := x.Arbitrate(nil)
	if res != (Result{}) {
		t.Errorf("empty arbitration = %+v", res)
	}
}

// Property: arbitration conserves requests, never grants two distinct
// addresses on one bank, and merged grants always match their winner.
func TestQuickArbitrationInvariants(t *testing.T) {
	f := func(seed int64, n uint8, advance uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		x := NewCrossbar(16)
		for i := 0; i < int(advance%32); i++ {
			x.Advance()
		}
		nreq := int(n%12) + 1
		reqs := make([]Request, nreq)
		for i := range reqs {
			reqs[i] = Request{
				Core:   i,
				Bank:   rng.Intn(4), // few banks to force conflicts
				Offset: rng.Intn(3),
				Write:  rng.Intn(3) == 0,
			}
		}
		res := x.Arbitrate(reqs)

		granted, merged, stalled := 0, 0, 0
		type ba struct{ b, o int }
		grantedAddr := map[int]ba{}
		grantedWrite := map[int]bool{}
		for _, r := range reqs {
			switch {
			case r.Granted && r.Merged:
				merged++
			case r.Granted:
				granted++
			default:
				stalled++
			}
			if r.Granted {
				if prev, ok := grantedAddr[r.Bank]; ok {
					if prev != (ba{r.Bank, r.Offset}) {
						return false // two addresses granted on one bank
					}
					if r.Write || grantedWrite[r.Bank] {
						return false // writes must be exclusive
					}
				} else {
					grantedAddr[r.Bank] = ba{r.Bank, r.Offset}
					grantedWrite[r.Bank] = r.Write
				}
			}
		}
		if granted != res.Accesses || merged != res.Merged || stalled != res.Stalled {
			return false
		}
		return granted+merged+stalled == nreq
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 3000}); err != nil {
		t.Error(err)
	}
}

// Property: exactly one non-merged grant (the bank access) per contended
// bank, so energy accounting can charge one access per bank per cycle.
func TestQuickOneAccessPerBank(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		x := NewCrossbar(8)
		reqs := make([]Request, rng.Intn(10)+1)
		for i := range reqs {
			reqs[i] = Request{Core: i, Bank: rng.Intn(2), Offset: rng.Intn(2)}
		}
		x.Arbitrate(reqs)
		perBank := map[int]int{}
		for _, r := range reqs {
			if r.Granted && !r.Merged {
				perBank[r.Bank]++
			}
		}
		for _, n := range perBank {
			if n != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

// Property: a request set with no incompatible same-bank pair — a write
// sharing a bank with anything, or two reads of different offsets — is
// granted in full at every rotating-priority phase, with one access per
// distinct bank, and any other set stalls some request at every phase (see
// PhasePeriod). The platform's parked pollers rely on the first half: a
// poller alone on its banks repeats its recorded period at any phase.
func TestQuickArbitrateGrantsCompatibleSetsAtEveryPhase(t *testing.T) {
	const nbanks = 8
	f := func(seed int64, n uint8, compatible bool) bool {
		rng := rand.New(rand.NewSource(seed))
		reqs := make([]Request, int(n%nbanks)+1)
		// In compatible mode a write takes a bank of its own and the reads
		// of one bank share its offset; with at most nbanks requests a
		// bank is always left for the next one.
		var used, written [nbanks]bool
		var offset [nbanks]int
		for b := range offset {
			offset[b] = rng.Intn(3)
		}
		for i := range reqs {
			r := Request{Core: i, Bank: rng.Intn(4), Offset: rng.Intn(3), Write: rng.Intn(4) == 0}
			if compatible {
				for written[r.Bank] || r.Write && used[r.Bank] {
					r.Bank = (r.Bank + 1) % nbanks
				}
				used[r.Bank], written[r.Bank] = true, r.Write
				if !r.Write {
					r.Offset = offset[r.Bank]
				}
			}
			reqs[i] = r
		}
		conflict := false
		banks := map[int]bool{}
		for i, ri := range reqs {
			banks[ri.Bank] = true
			for _, rj := range reqs[:i] {
				if rj.Bank == ri.Bank && (ri.Write || rj.Write || ri.Offset != rj.Offset) {
					conflict = true
				}
			}
		}
		if compatible && conflict {
			return false // the generator broke its own rule
		}
		x := NewCrossbar(nbanks)
		for phase := 0; phase < PhasePeriod; phase++ {
			x.SetPhase(phase)
			got := slices.Clone(reqs)
			res := x.Arbitrate(got)
			if conflict {
				if res.Stalled == 0 {
					return false
				}
				continue
			}
			if res.Stalled != 0 || res.Accesses != len(banks) {
				return false
			}
			for _, r := range got {
				if !r.Granted {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 1500}); err != nil {
		t.Error(err)
	}
}
