package power

import "fmt"

// MaxSyncGroups bounds the number of mask-defined sync groups a descriptor
// can declare (hwsync-style units expose a small fixed set of group masks).
const MaxSyncGroups = 4

// MaxTimeoutCycles bounds a descriptor's TimeoutCycles. The sync unit arms a
// deadline as the current cycle plus the timeout, which must not wrap;
// 2^40 cycles is about 16 hours at the fastest multi-core VFS point, far
// beyond any wait a recovery timeout is meant to catch.
const MaxTimeoutCycles = 1 << 40

// Arch is a sync-architecture descriptor: a declarative description of the
// platform variant a run executes on. It replaces the former three-value
// enum; the paper's variants are the named presets SC, MC and MCNoSync
// (registered by name in the descriptor registry, see registry.go).
//
// The zero value is the single-core baseline. Descriptors are plain
// comparable structs, so they remain usable as map keys and in ==
// comparisons against the presets.
type Arch struct {
	// Multi selects the multi-core fabric (crossbars, ATU,
	// all-DM-banks-active rule). False is the single-core baseline: same
	// memory hierarchy, simple decoders instead of crossbars (higher
	// f_max at equal voltage).
	Multi bool
	// BusyWait disables the hardware synchronizer: producer-consumer
	// relationships fall back to active waiting (the paper's "no-sync"
	// column, Figure 6).
	BusyWait bool
	// Groups are the sync unit's mask-defined core groups: bit c of
	// Groups[g] makes core c a member of group g. An all-zero array
	// declares the paper's single all-core barrier (group 0 spanning
	// every core), so the presets keep their historical behavior.
	Groups [MaxSyncGroups]uint8
	// TimeoutCycles, when non-zero, arms a per-core timeout on every
	// gated wait: a core still waiting after this many cycles receives a
	// sync-timeout IRQ and is woken instead of hanging its group. At most
	// MaxTimeoutCycles.
	TimeoutCycles uint64
}

// The paper's architecture variants, as preset descriptors. These are
// variables only because Go constants cannot be structs; they must not be
// mutated.
var (
	// SC is the single-core baseline.
	SC = Arch{}
	// MC is the multi-core platform with the proposed synchronization.
	MC = Arch{Multi: true}
	// MCNoSync is the multi-core platform without the proposed approach:
	// active waiting for producer-consumer relationships (Figure 6).
	MCNoSync = Arch{Multi: true, BusyWait: true}
)

// String returns the descriptor's registered name (presets render exactly as
// the former enum did: "SC", "MC", "MC-nosync") or, for unregistered custom
// descriptors, a compact structural rendering.
func (a Arch) String() string {
	if name, ok := ArchName(a); ok {
		return name
	}
	return a.Key()
}

// Key returns a canonical structural rendering of the descriptor, used for
// cache and checkpoint keys: two descriptors produce the same key iff they
// are structurally equal, independent of any registered names.
func (a Arch) Key() string {
	return fmt.Sprintf("arch[multi=%t,busywait=%t,groups=%02x.%02x.%02x.%02x,timeout=%d]",
		a.Multi, a.BusyWait, a.Groups[0], a.Groups[1], a.Groups[2], a.Groups[3], a.TimeoutCycles)
}

// IsMulti reports whether the variant uses the multi-core fabric (crossbars,
// ATU, all-DM-banks-active rule).
func (a Arch) IsMulti() bool { return a.Multi }

// HasSyncUnit reports whether the hardware synchronizer is instantiated (and
// consumes power): the multi-core fabric without the busy-wait fallback.
func (a Arch) HasSyncUnit() bool { return a.Multi && !a.BusyWait }

// NumGroups returns the number of declared sync groups: the highest non-zero
// Groups entry plus one, or 1 for the implicit all-core barrier of an
// all-zero array.
func (a Arch) NumGroups() int {
	n := 1
	for g := 0; g < MaxSyncGroups; g++ {
		if a.Groups[g] != 0 {
			n = g + 1
		}
	}
	return n
}

// GroupMask returns the member-core mask of group g. With an all-zero Groups
// array, group 0 spans all cores (the paper's single barrier) and the other
// groups are empty.
func (a Arch) GroupMask(g int) uint8 {
	if g < 0 || g >= MaxSyncGroups {
		return 0
	}
	if a.Groups == [MaxSyncGroups]uint8{} {
		if g == 0 {
			return 0xFF
		}
		return 0
	}
	return a.Groups[g]
}

// OperatingPoint is one row of the voltage-frequency table: the maximum
// clock frequency each architecture sustains at a supply voltage.
// The single-core fabric replaces crossbars with simple decoders, allowing
// higher clock frequencies at the same voltage level (paper §IV-B); the
// ratio below reflects the crossbar being on the memory critical path.
type OperatingPoint struct {
	VoltageV float64
	FMaxMCHz float64
	FMaxSCHz float64
}

// SCFreqAdvantage is f_max(SC)/f_max(MC) at equal voltage.
const SCFreqAdvantage = 1.4

// MinClockHz is the platform's minimum clock frequency: the paper's
// multi-core executions all report 1.0 MHz, the floor of the clock network.
const MinClockHz = 1.0e6

// DefaultVFS returns the voltage-frequency table used by the reproduction.
// f_max follows an alpha-power-law-like progression typical of 90 nm
// low-leakage logic between 0.5 V and 1.2 V.
func DefaultVFS() []OperatingPoint {
	mc := []struct {
		v, f float64
	}{
		{0.5, 1.05e6},
		{0.6, 2.6e6},
		{0.7, 4.6e6},
		{0.8, 7.0e6},
		{0.9, 9.8e6},
		{1.0, 13.0e6},
		{1.1, 16.0e6},
		{1.2, 19.0e6},
	}
	pts := make([]OperatingPoint, len(mc))
	for i, e := range mc {
		pts[i] = OperatingPoint{VoltageV: e.v, FMaxMCHz: e.f, FMaxSCHz: e.f * SCFreqAdvantage}
	}
	return pts
}

// FMax returns the table's maximum frequency for arch at the given point.
func (op OperatingPoint) FMax(arch Arch) float64 {
	if !arch.IsMulti() {
		return op.FMaxSCHz
	}
	return op.FMaxMCHz
}

// MinVoltage returns the lowest operating point whose f_max for arch is at
// least freqHz. It errors when the demand exceeds the fastest point.
func MinVoltage(vfs []OperatingPoint, arch Arch, freqHz float64) (OperatingPoint, error) {
	for _, op := range vfs {
		if op.FMax(arch) >= freqHz {
			return op, nil
		}
	}
	return OperatingPoint{}, fmt.Errorf("power: no operating point sustains %.2f MHz for %v", freqHz/1e6, arch)
}

// ClampFreq applies the platform clock floor to a demanded frequency.
func ClampFreq(freqHz float64) float64 {
	if freqHz < MinClockHz {
		return MinClockHz
	}
	return freqHz
}
