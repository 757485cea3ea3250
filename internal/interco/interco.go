// Package interco models the interconnection networks between cores and
// memories. The multi-core platform uses logarithmic-interconnect crossbars
// (Kakoee et al., DATE'12) providing single-cycle combinational access, here
// extended — as in the paper — with broadcasting: multiple read requests for
// the same location in the same clock cycle are merged into a single memory
// access. The single-core baseline replaces the crossbars with simple
// decoders; the simulator models them as crossbars with one requester,
// which grant every request, and charges the decoders' energy through
// power.Params.
package interco

// Request is one core-to-memory access submitted for arbitration within a
// single clock cycle.
type Request struct {
	Core   int  // requesting core id
	Bank   int  // target bank
	Offset int  // word offset within the bank
	Write  bool // write access (writes never merge)

	// Outcome, filled by Arbitrate.
	Granted bool // access proceeds this cycle
	Merged  bool // granted by riding a broadcast of another core's access
}

// Result summarizes one cycle of arbitration.
type Result struct {
	Accesses int // bank accesses actually performed (post-merge)
	Merged   int // requests satisfied by a broadcast merge (no own access)
	Stalled  int // requests that must retry next cycle
}

// PhasePeriod is the cycle count after which the rotating arbitration
// priority repeats: only rr mod PhasePeriod is observable (see prio): a
// repeating request pattern produces repeating grant/stall outcomes once
// its period is a multiple of PhasePeriod.
// The one exception is a conflict-free pattern: when no two same-cycle
// requests collide incompatibly on a bank, every request is granted at every
// phase (winner selection only matters to stalled losers, and read merges
// grant all parties regardless of which rides the broadcast), so the pattern
// repeats at its own period and the leap only needs AdvanceN to land the
// phase where a stepped run would.
const PhasePeriod = 64

// Crossbar arbitrates same-cycle requests onto banks with rotating priority
// and broadcast merging.
type Crossbar struct {
	rr int // rotating priority seed, advanced every cycle

	// per-bank scratch, reset for the requested banks each Arbitrate call
	winner     []int // index into reqs of the winning request, -1 if none
	winnerCore []int
}

// NewCrossbar returns a crossbar arbitrating over nbanks banks.
func NewCrossbar(nbanks int) *Crossbar {
	return &Crossbar{
		winner:     make([]int, nbanks),
		winnerCore: make([]int, nbanks),
	}
}

// Advance rotates the arbitration priority; call once per platform cycle.
func (x *Crossbar) Advance() { x.rr++ }

// AdvanceN rotates the arbitration priority by n cycles at once, for the
// platform's fast paths: leaping over n cycles — quiescent ones, or a
// stride's cycles with every participant parked — must leave the
// rotating priority exactly where a cycle-by-cycle run would. Only
// rr mod PhasePeriod is observable (see prio), so n is reduced first to
// keep the counter far from overflow.
func (x *Crossbar) AdvanceN(n uint64) { x.rr = (x.rr + int(n%PhasePeriod)) & (PhasePeriod - 1) }

// Phase returns the observable rotating-priority phase (rr mod PhasePeriod),
// the crossbar's only mutable state, for platform snapshots.
func (x *Crossbar) Phase() int { return x.rr & (PhasePeriod - 1) }

// SetPhase reinstates a snapshotted rotating-priority phase.
func (x *Crossbar) SetPhase(p int) { x.rr = p & (PhasePeriod - 1) }

// Arbitrate resolves the cycle's requests in place and returns the summary.
//
// Per bank: the pending request whose core has the highest rotating priority
// wins and performs the bank access. If the winner is a read, every other
// read of the same (bank, offset) is granted by broadcast merging. All other
// requests on that bank stall. Writes are exclusive: they never merge, and
// two same-cycle writes (even to the same address) serialize.
func (x *Crossbar) Arbitrate(reqs []Request) Result {
	var res Result
	if len(reqs) == 0 {
		return res
	}
	// Only the requested banks are ever read below.
	for i := range reqs {
		x.winner[reqs[i].Bank] = -1
	}
	// Pick winners with rotating priority: lower (core-rr) mod N wins.
	for i := range reqs {
		r := &reqs[i]
		r.Granted, r.Merged = false, false
		b := r.Bank
		w := x.winner[b]
		if w < 0 || x.prio(r.Core) < x.prio(x.winnerCore[b]) {
			x.winner[b] = i
			x.winnerCore[b] = r.Core
		}
	}
	// Grant winners and merge compatible reads.
	for i := range reqs {
		r := &reqs[i]
		w := x.winner[r.Bank]
		if w == i {
			r.Granted = true
			res.Accesses++
			continue
		}
		win := &reqs[w]
		if !r.Write && !win.Write && r.Offset == win.Offset {
			r.Granted = true
			r.Merged = true
			res.Merged++
			continue
		}
		res.Stalled++
	}
	return res
}

// PlanConflictFree reports whether reqs — one cycle's request set — is
// conflict-free: every request would be granted by Arbitrate at every
// rotating-priority phase. That holds exactly when no bank sees an
// incompatible pair — a write sharing a bank with anything, or two reads of
// different offsets — because winner selection only matters to stalled
// losers, and read merges grant all parties regardless of which rides the
// broadcast (see PhasePeriod). On success it returns the number of bank
// accesses the cycle performs post-merge (one per distinct bank); on failure
// the access count is meaningless and at least one request would stall at
// some (possibly every) phase.
//
// Unlike Arbitrate this is a pure predicate: it never mutates reqs or the
// crossbar, and its answer holds at every phase, so the lock-step lane of
// the platform's multi-core stride engine can grant a cycle's data accesses
// without arbitrating them. Request sets are tiny (at most one per core),
// so the quadratic same-bank scan beats any map.
func PlanConflictFree(reqs []Request) (accesses int, ok bool) {
	for i := range reqs {
		ri := &reqs[i]
		first := true
		for j := 0; j < i; j++ {
			rj := &reqs[j]
			if rj.Bank != ri.Bank {
				continue
			}
			// Same-bank pair: only equal-offset reads coexist stall-free.
			if ri.Write || rj.Write || rj.Offset != ri.Offset {
				return 0, false
			}
			first = false
		}
		if first {
			accesses++
		}
	}
	return accesses, true
}

func (x *Crossbar) prio(core int) int {
	// Rotating: the core equal to rr mod PhasePeriod has priority 0 this
	// cycle.
	return (core - x.rr) & (PhasePeriod - 1)
}
