// Randomized cross-engine differential fuzzer.
//
// Every fast-path engine in this package (idle fast-forward, single-core
// block runs, multi-core strides with parked pollers) claims
// bit-identity with the cycle-accurate Step loop. The hand-written
// differential suites pin the cases we thought of; this fuzzer generates the
// ones we didn't. Each case assembles a small random program from the real
// ISA encoder — arithmetic, loads/stores through shared and private windows,
// MMIO probes, forward and backward branches, counted loops shorter than
// maxPollLoop (strides record them and judge them unparkable), poll/produce
// pairs (core 0 sets a shared flag after random work
// or a counted loop while the other cores poll it or a two-word read set,
// so strides carry yielded pollers, park them and release them mid-stride,
// sometimes after a store to another word of the flag's bank), jumps, sync
// ISE forms, SLEEP and HALT — lays it out across 1–4 cores in one of three
// placements, taken in turn (lock-step shared code, optionally with core 0
// on a copy in another IM bank; same-IM-bank private copies; distinct-bank
// private copies), runs it
// through an exact platform and a fast one (optionally chunked across two
// Run calls), and asserts that every observable — counters, registers, the
// entire data memory, the synchronizer state,
// debug and violation streams, fault messages — is bit-identical.
//
// The generator is seeded deterministically per (core count, case index), so
// any failure reproduces in isolation:
//
//	go test ./internal/platform -run 'TestDiffFuzz/c2/case017' -args -difffuzz.seed=1
//
// CI runs the fuzzer with -difffuzz.cases=500 (see .github/workflows/ci.yml);
// the default stays small enough for the ordinary test suite.
package platform

import (
	"flag"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/isa"
)

var (
	fuzzCases = flag.Int("difffuzz.cases", 40, "differential fuzzer: cases per core count")
	fuzzSeed  = flag.Int64("difffuzz.seed", 1, "differential fuzzer: base seed")
)

// fuzzMinCases is how many cases a placement must run before the fuzzer
// checks that they engaged the engine they are meant to pin: the default
// 40 cases give each of the three placements 13 or 14.
const fuzzMinCases = 12

// fuzzProg generates one random program: a register prologue, a weighted
// random body, and a tail that stores live registers and either halts or
// loops back over the body forever (the budget bounds looping programs).
// With poll set the body opens with a poll/produce template whose producer
// runs a counted loop, so strides get pollers to park.
func fuzzProg(rng *rand.Rand, nsync int, poll bool) []isa.Word {
	aluR := []isa.Opcode{
		isa.OpADD, isa.OpSUB, isa.OpAND, isa.OpOR, isa.OpXOR,
		isa.OpSLL, isa.OpSRL, isa.OpSRA, isa.OpMUL, isa.OpMULH,
		isa.OpSLT, isa.OpSLTU, isa.OpMIN, isa.OpMAX, isa.OpMINU, isa.OpMAXU,
	}
	aluI := []isa.Opcode{
		isa.OpADDI, isa.OpANDI, isa.OpORI, isa.OpXORI,
		isa.OpSLLI, isa.OpSRLI, isa.OpSRAI, isa.OpSLTI,
	}
	branches := []isa.Opcode{isa.OpBEQ, isa.OpBNE, isa.OpBLT, isa.OpBGE, isa.OpBLTU, isa.OpBGEU}
	syncs := []isa.Opcode{isa.OpSINC, isa.OpSDEC, isa.OpSNOP}

	// Registers the generator writes freely; r4 (shared base) and r9
	// (private base) stay stable so most memory traffic lands in powered,
	// initialized windows. r14 and r15 belong to the counted-loop template:
	// written nowhere else, they bound every entry of such a loop, even one
	// a random branch lands in. r13 is scratch for MMIO probes and the
	// poll/produce template, which set it before every use.
	work := []uint8{1, 2, 3, 5, 6, 7, 8, 10, 11, 12}
	wr := func() uint8 { return work[rng.Intn(len(work))] }

	w := []isa.Word{
		enc(isa.OpADDI, 4, 0, 0, 256),                 // r4 = shared data base
		enc(isa.OpLUI, 9, 0, 0, 17),                   // r9 = 1088: private window
		enc(isa.OpADDI, 1, 0, 0, int32(rng.Intn(64))), // two live operands
		enc(isa.OpADDI, 2, 0, 0, int32(rng.Intn(64))-32),
	}
	bodyStart := int32(len(w))
	if poll {
		w = append(w, fuzzPollProduce(rng, wr, aluR, true)...)
	}

	n := 10 + rng.Intn(25)
	for i := 0; i < n; i++ {
		switch k := rng.Intn(100); {
		case k < 33: // R-type ALU
			w = append(w, enc(aluR[rng.Intn(len(aluR))], wr(), wr(), wr(), 0))
		case k < 35: // poll/produce: core 0 sets the flag after some work, the others poll it
			w = append(w, fuzzPollProduce(rng, wr, aluR, rng.Intn(2) == 0)...)
		case k < 38: // counted loop: r14 marches through a window up to r15
			base := uint8(4)
			if rng.Intn(2) == 0 {
				base = 9
			}
			off := int32(rng.Intn(24))
			w = append(w,
				enc(isa.OpADDI, 14, base, 0, off),
				enc(isa.OpADDI, 15, base, 0, off+2+int32(rng.Intn(14))),
			)
			head := int32(len(w))
			for j, nb := 0, 1+rng.Intn(8); j < nb; j++ {
				if rng.Intn(2) == 0 {
					w = append(w, enc(isa.OpLW, wr(), 14, 0, int32(rng.Intn(16))))
				} else {
					w = append(w, enc(aluR[rng.Intn(len(aluR))], wr(), wr(), wr(), 0))
				}
			}
			w = append(w, enc(isa.OpADDI, 14, 14, 0, 1))
			w = append(w, enc(isa.OpBLTU, 0, 14, 15, head-int32(len(w))-1))
		case k < 58: // I-type ALU
			op := aluI[rng.Intn(len(aluI))]
			imm := int32(rng.Intn(1024)) - 512
			if op == isa.OpSLLI || op == isa.OpSRLI || op == isa.OpSRAI {
				imm = int32(rng.Intn(16))
			}
			w = append(w, enc(op, wr(), wr(), 0, imm))
		case k < 74: // load/store through a valid window
			base := uint8(4)
			if rng.Intn(2) == 0 {
				base = 9
			}
			off := int32(rng.Intn(48))
			if rng.Intn(2) == 0 {
				w = append(w, enc(isa.OpLW, wr(), base, 0, off))
			} else {
				w = append(w, enc(isa.OpSW, 0, base, wr(), off))
			}
		case k < 77: // MMIO probe: core ID read or debug-port write
			w = append(w, enc(isa.OpLUI, 13, 0, 0, 508)) // r13 = 0x7F00
			if rng.Intn(2) == 0 {
				w = append(w, enc(isa.OpLW, wr(), 13, 0, 0)) // RegCoreID
			} else {
				w = append(w, enc(isa.OpSW, 0, 13, wr(), 16)) // RegDebugOut
			}
		case k < 79: // wild pointer: exercises fault/violation equality
			w = append(w, enc(isa.OpLW, wr(), wr(), 0, int32(rng.Intn(1024))-512))
		case k < 89: // conditional branch, mostly forward, sometimes a loop
			imm := int32(1 + rng.Intn(3))
			if rng.Intn(5) == 0 && int32(len(w)) > bodyStart+4 {
				imm = -int32(1 + rng.Intn(4))
			}
			w = append(w, enc(branches[rng.Intn(len(branches))], 0, wr(), wr(), imm))
		case k < 92: // forward jump
			w = append(w, enc(isa.OpJAL, 3, 0, 0, int32(1+rng.Intn(3))))
		case k < 93: // dynamic jump to a small PC (r5-relative)
			w = append(w, enc(isa.OpADDI, 5, 0, 0, int32(rng.Intn(4))))
			w = append(w, enc(isa.OpJALR, 3, 5, 0, int32(bodyStart)))
		case k < 97 && nsync > 0: // sync ISE, including group-tagged forms
			op := syncs[rng.Intn(len(syncs))]
			pt := rng.Intn(nsync)
			w = append(w, enc(op, 0, 0, 0, int32(isa.SyncImm(rng.Intn(2)*2, pt))))
		case k < 98 && nsync > 0: // SEVS rendezvous (may gate until wake/budget)
			set := uint8(1 + rng.Intn(3))
			wait := uint8(rng.Intn(4))
			w = append(w, enc(isa.OpSEVS, 0, 0, 0, int32(isa.SevsImm(0, set, wait))))
		case k < 99: // SLEEP: gates until a sync event or forever
			w = append(w, enc(isa.OpSLEEP, 0, 0, 0, 0))
		default:
			w = append(w, enc(isa.OpNOP, 0, 0, 0, 0))
		}
	}

	// Tail: publish live registers, then halt or loop forever.
	w = append(w,
		enc(isa.OpSW, 0, 4, 1, 60),
		enc(isa.OpSW, 0, 4, 2, 61),
		enc(isa.OpSW, 0, 4, 3, 62),
	)
	if rng.Intn(10) < 7 {
		w = append(w, enc(isa.OpHALT, 0, 0, 0, 0))
	} else {
		w = append(w, enc(isa.OpJAL, 0, 0, 0, bodyStart-int32(len(w))-1))
	}
	return w
}

// The poll/produce template's words, as shared-window offsets from r4.
// fuzzFlag and fuzzFlag2, clear at reset, lie above every other template's
// accesses through r4 (offsets up to 53) and below the tail's stores
// (60–62), so only a producer sets them. fuzzMiss shares fuzzFlag's DM bank
// under the ATU's word interleaving and nothing polls it.
const (
	fuzzFlag  = 56
	fuzzFlag2 = 57
	fuzzMiss  = fuzzFlag + 16
)

// fuzzPollProduce generates one poll/produce template: core 0 skips the
// poll loop and produces, every other core polls and skips the producer.
// The poll loop waits on the flag word or, in a two-word read set, on the
// flag and a second word; the producer releases it by setting the word
// polled last. Before that it does a little work or, if counted, a counted
// loop of 50–400 iterations, long enough for strides to park the pollers,
// and may store to another word of the flag's DM bank, a bank collision
// that misses the pollers' read set.
func fuzzPollProduce(rng *rand.Rand, wr func() uint8, aluR []isa.Opcode, counted bool) []isa.Word {
	r := wr()
	poll := []isa.Word{
		enc(isa.OpLW, r, 4, 0, fuzzFlag), // poll: a two-instruction loop
		enc(isa.OpBEQ, 0, r, 0, -2),      // ...while the flag is clear
	}
	release := int32(fuzzFlag)
	if rng.Intn(2) == 0 {
		r2 := wr()
		poll = []isa.Word{
			enc(isa.OpLW, r, 4, 0, fuzzFlag),
			enc(isa.OpLW, r2, 4, 0, fuzzFlag2),
			enc(isa.OpOR, r, r, r2, 0),
			enc(isa.OpBEQ, 0, r, 0, -4), // ...while both words are clear
		}
		release = fuzzFlag2
	}
	var produce []isa.Word
	work := func() {
		for j, nwork := 0, 1+rng.Intn(6); j < nwork; j++ {
			produce = append(produce, enc(aluR[rng.Intn(len(aluR))], wr(), wr(), wr(), 0))
		}
	}
	if counted {
		produce = append(produce, enc(isa.OpADDI, 13, 0, 0, int32(50+rng.Intn(351))))
		head := len(produce)
		work()
		produce = append(produce, enc(isa.OpADDI, 13, 13, 0, -1))
		produce = append(produce, enc(isa.OpBNE, 0, 13, 0, int32(head-len(produce)-1)))
	} else {
		work()
	}
	if rng.Intn(2) == 0 {
		produce = append(produce, enc(isa.OpSW, 0, 4, wr(), fuzzMiss))
	}
	produce = append(produce,
		enc(isa.OpADDI, 13, 0, 0, int32(1+rng.Intn(500))),
		enc(isa.OpSW, 0, 4, 13, release), // release the pollers
	)

	w := []isa.Word{
		enc(isa.OpLUI, 13, 0, 0, 508),              // r13 = 0x7F00
		enc(isa.OpLW, 13, 13, 0, 0),                // r13 = core id (RegCoreID)
		enc(isa.OpBEQ, 0, 13, 0, int32(len(poll))), // core 0 skips the poll loop
	}
	w = append(w, poll...)
	w = append(w, enc(isa.OpBNE, 0, 13, 0, int32(len(produce)))) // pollers skip the producer
	return append(w, produce...)
}

// fuzzImage lays out per-core programs in one of three placements and backs
// them with a shared data window, a private-window power domain and a
// sync-point mirror. With poll set, the lock-step and distinct-bank
// placements' programs open with a poll/produce template whose producer
// runs a counted loop (see fuzzProg).
func fuzzImage(rng *rand.Rand, ncore, layout, nsync int, poll bool) *Image {
	data := make([]uint16, 64)
	for i := range data {
		data[i] = uint16(rng.Intn(1 << 16))
	}
	data[fuzzFlag], data[fuzzFlag2] = 0, 0
	img := &Image{
		SharedLimit:   1024,
		NumSyncPoints: nsync,
		Shared: []DataSeg{
			{Base: 0, Words: make([]uint16, 8)}, // sync mirror + SC bank-0 power
			{Base: 256, Words: data},
		},
	}
	switch layout {
	case 0: // lock-step: every core enters the same shared code...
		split := ncore > 1 && poll
		words := fuzzProg(rng, nsync, split)
		img.Code = []CodeSeg{{Base: 0, Words: words}}
		for c := 0; c < ncore; c++ {
			img.Entries = append(img.Entries, 0)
		}
		// ...or core 0, the poll/produce template's producer, enters an
		// identical copy in another IM bank, so the others' lock-step poll
		// loops are alone in theirs while it works.
		if split {
			img.Code = append(img.Code, CodeSeg{Base: isa.IMBankWords, Words: words})
			img.Entries[0] = isa.IMBankWords
		}
	case 1: // private copies packed into one IM bank: fetch conflicts
		for c := 0; c < ncore; c++ {
			base := c * 96
			img.Code = append(img.Code, CodeSeg{Base: base, Words: fuzzProg(rng, nsync, false)})
			img.Entries = append(img.Entries, base)
		}
	default: // private copies in distinct IM banks: divergent-PC strides
		for c := 0; c < ncore; c++ {
			base := c * isa.IMBankWords
			img.Code = append(img.Code, CodeSeg{Base: base, Words: fuzzProg(rng, nsync, poll)})
			img.Entries = append(img.Entries, base)
		}
	}
	return img
}

// fuzzRun builds one platform, exact or with every fast path, and runs the
// budget, optionally split across two Run calls (fast-path engagement
// decisions depend on chunk boundaries; the observable result must not).
// The same split is applied to both platforms of a pair: every Run call
// steps at least one cycle even on a fully-halted platform, so chunking is
// itself observable — identically so in both modes.
func fuzzRun(t *testing.T, img *Image, cfg Config, exact bool, budget uint64, split uint64) (*Platform, error) {
	t.Helper()
	p, err := New(cfg, img)
	if err != nil {
		t.Fatal(err)
	}
	p.SetExact(exact)
	if split > 0 && split < budget {
		if err := p.Run(split); err != nil {
			return p, err
		}
		return p, p.Run(budget - split)
	}
	return p, p.Run(budget)
}

// assertFuzzIdentical is the full differential contract for one case.
func assertFuzzIdentical(t *testing.T, exact, fast *Platform, exactErr, fastErr error) {
	t.Helper()
	if (exactErr == nil) != (fastErr == nil) {
		t.Errorf("run outcomes diverge: exact err %v, fast err %v", exactErr, fastErr)
		return
	}
	if exactErr != nil && exactErr.Error() != fastErr.Error() {
		t.Errorf("fault messages diverge:\nexact: %v\nfast:  %v", exactErr, fastErr)
	}
	assertIdentical(t, exact, fast)
	if !reflect.DeepEqual(exact.Debug(), fast.Debug()) {
		t.Error("debug streams diverge")
	}
	if !reflect.DeepEqual(exact.ErrCodes(), fast.ErrCodes()) {
		t.Error("error-code streams diverge")
	}
	ev, fv := exact.Violations(), fast.Violations()
	if !reflect.DeepEqual(ev, fv) {
		t.Errorf("violations diverge:\nexact: %v\nfast:  %v", ev, fv)
	}
	es, fs := exact.dmem.Snapshot(), fast.dmem.Snapshot()
	if !reflect.DeepEqual(es.Words, fs.Words) {
		for i := range es.Words {
			if es.Words[i] != fs.Words[i] {
				t.Errorf("DM[%d] diverges: exact %#04x, fast %#04x", i, es.Words[i], fs.Words[i])
			}
		}
	}
	if !reflect.DeepEqual(exact.sync.Snapshot(), fast.sync.Snapshot()) {
		t.Errorf("synchronizer state diverges:\nexact: %+v\nfast:  %+v", exact.sync.Snapshot(), fast.sync.Snapshot())
	}
	if exact.BlockCycles() != 0 || exact.BlockMCCycles() != 0 {
		t.Errorf("exact platform used the block engine (%d/%d cycles), want 0",
			exact.BlockCycles(), exact.BlockMCCycles())
	}
}

// TestDiffFuzz is the randomized cross-engine differential fuzzer. Failures
// dump the full program listing and the exact command that replays the one
// failing case.
func TestDiffFuzz(t *testing.T) {
	for ncore := 1; ncore <= 4; ncore++ {
		ncore := ncore
		t.Run(fmt.Sprintf("c%d", ncore), func(t *testing.T) {
			// sameBank* sum the stride cycles and the cycles no idle leap
			// covered over the same-IM-bank placement's cases; parked* the
			// parked core-cycles of the lock-step and distinct-bank
			// placements; cases counts each placement's cases.
			var blockCycles, mcCycles, sameBankStride, sameBankBusy uint64
			var parkedLockstep, parkedDistinct uint64
			var cases [3]int
			for ci := 0; ci < *fuzzCases; ci++ {
				ci := ci
				t.Run(fmt.Sprintf("case%03d", ci), func(t *testing.T) {
					rng := rand.New(rand.NewSource(*fuzzSeed<<24 ^ int64(ncore)<<16 ^ int64(ci)))
					// Placements take turns, and every other case of a
					// placement opens with a poll/produce template, so each
					// placement's engagement checks below have their cases.
					layout, poll := ci%3, ci/3%2 == 1
					if ncore == 1 {
						layout = 0
					}
					const nsync = 4
					img := fuzzImage(rng, ncore, layout, nsync, poll)

					cfg := mcCfg()
					if ncore == 1 && rng.Intn(2) == 0 {
						cfg = scCfg()
						img.SharedLimit = 0
					}
					budget := uint64(2000 + rng.Intn(4000))
					var split uint64
					if rng.Intn(2) == 0 {
						split = 1 + uint64(rng.Int63n(int64(budget-1)))
					}

					exact, exactErr := fuzzRun(t, img, cfg, true, budget, split)
					fast, fastErr := fuzzRun(t, img, cfg, false, budget, split)
					assertFuzzIdentical(t, exact, fast, exactErr, fastErr)
					cases[layout]++
					blockCycles += fast.BlockCycles()
					mcCycles += fast.BlockMCCycles()
					switch layout {
					case 0:
						parkedLockstep += fast.BlockMCParkedCycles()
					case 1:
						sameBankStride += fast.BlockMCCycles()
						sameBankBusy += fast.Cycle() - fast.FFSkippedCycles()
					default:
						parkedDistinct += fast.BlockMCParkedCycles()
					}

					if t.Failed() {
						t.Logf("arch %v, layout %d, budget %d, split %d", cfg.Arch, layout, budget, split)
						for _, seg := range img.Code {
							t.Logf("code @%d:\n%s", seg.Base, isa.Listing(seg.Base, seg.Words))
						}
						t.Logf("reproduce: go test ./internal/platform -run 'TestDiffFuzz/c%d/case%03d' -args -difffuzz.seed=%d",
							ncore, ci, *fuzzSeed)
					}
				})
			}
			// The fuzzer must actually exercise the engines it is meant to
			// pin. Each check is gated on the cases its own placement ran:
			// a sum over a handful of random programs is dominated by one or
			// two long ones. Single-core runs must hit block runs and
			// multi-core runs must hit strides — including the same-IM-bank
			// placement, whose fetches collide every cycle the cores
			// diverge: strides must arbitrate at least a tenth of its
			// cycles no idle leap covered. The generator's programs run a
			// fifth to a half there; strides that ended at their first
			// conflict would reach about 1 %. Strides must park pollers, in
			// lock-step groups and alone.
			if cases[0] >= fuzzMinCases && blockCycles == 0 {
				t.Errorf("no case engaged the block engine (%d cases)", *fuzzCases)
			}
			if ncore >= 2 && cases[0]+cases[1]+cases[2] >= fuzzMinCases && mcCycles == 0 {
				t.Errorf("no case engaged multi-core strides (%d cases)", *fuzzCases)
			}
			if ncore >= 2 && cases[1] >= fuzzMinCases && sameBankStride*10 < sameBankBusy {
				t.Errorf("same-IM-bank cases ran %d of %d cycles no idle leap covered on strides, want at least 10%%",
					sameBankStride, sameBankBusy)
			}
			if ncore >= 2 && cases[0] >= fuzzMinCases && parkedLockstep == 0 {
				t.Errorf("no parked core-cycles in %d lock-step cases", cases[0])
			}
			if ncore >= 2 && cases[2] >= fuzzMinCases && parkedDistinct == 0 {
				t.Errorf("no parked core-cycles in %d distinct-bank cases", cases[2])
			}
		})
	}
}
