package power

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func baseCounters() *Counters {
	return &Counters{
		Cycles:            1_000_000,
		CoreActive:        800_000,
		CoreStall:         50_000,
		CoreGated:         150_000,
		Instrs:            800_000,
		IMReqs:            800_000,
		IMAccesses:        700_000,
		DMReqs:            300_000,
		DMReads:           200_000,
		DMWrites:          95_000,
		XbarReqs:          1_100_000,
		SyncOps:           1_000,
		SyncPointWrites:   900,
		UngatedCoreCycles: 850_000,
		MMIOReads:         5_000,
		MMIOWrites:        1_000,
	}
}

func mcConfig() SystemConfig {
	return SystemConfig{Arch: MC, NumCores: 3, ActiveIMBanks: 1, ActiveDMBanks: 16, VoltageV: 0.5, FreqHz: 1e6}
}

func TestComputeBasics(t *testing.T) {
	r, err := Compute(mcConfig(), baseCounters(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.DurationS != 1.0 {
		t.Errorf("DurationS = %v, want 1.0", r.DurationS)
	}
	if r.TotalUW <= 0 {
		t.Fatal("total power must be positive")
	}
	var sum float64
	for comp := Component(0); comp < NumComponents; comp++ {
		if r.DynamicUW[comp] < 0 || r.LeakUW[comp] < 0 {
			t.Errorf("%v: negative power", comp)
		}
		sum += r.ComponentUW(comp)
	}
	if math.Abs(sum-r.TotalUW) > 1e-9 {
		t.Errorf("decomposition sums to %v, total says %v", sum, r.TotalUW)
	}
}

func TestDynamicScalesWithVoltageSquared(t *testing.T) {
	p := DefaultParams()
	c := baseCounters()
	lo := mcConfig()
	hi := mcConfig()
	hi.VoltageV = 1.0
	rl, err := Compute(lo, c, p)
	if err != nil {
		t.Fatal(err)
	}
	rh, err := Compute(hi, c, p)
	if err != nil {
		t.Fatal(err)
	}
	ratio := rl.TotalDynamicUW / rh.TotalDynamicUW
	if math.Abs(ratio-0.25) > 1e-9 {
		t.Errorf("dynamic ratio at 0.5V vs 1.0V = %v, want 0.25", ratio)
	}
	lratio := rl.TotalLeakUW / rh.TotalLeakUW
	if math.Abs(lratio-0.125) > 1e-9 {
		t.Errorf("leakage ratio = %v, want 0.125", lratio)
	}
}

func TestSCUsesDecodersAndNoSynchronizer(t *testing.T) {
	cfg := mcConfig()
	cfg.Arch = SC
	cfg.NumCores = 1
	r, err := Compute(cfg, baseCounters(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.ComponentUW(CompSync) != 0 {
		t.Errorf("SC synchronizer power = %v, want 0", r.ComponentUW(CompSync))
	}
	mc, err := Compute(mcConfig(), baseCounters(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.DynamicUW[CompInterco] >= mc.DynamicUW[CompInterco] {
		t.Error("decoder interconnect should be cheaper than crossbar at same traffic")
	}
	if r.DynamicUW[CompClock] >= mc.DynamicUW[CompClock] {
		t.Error("SC clock tree should be cheaper than MC clock tree")
	}
}

func TestMCNoSyncHasNoSynchronizerButKeepsCrossbar(t *testing.T) {
	cfg := mcConfig()
	cfg.Arch = MCNoSync
	r, err := Compute(cfg, baseCounters(), DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	if r.ComponentUW(CompSync) != 0 {
		t.Error("MC-nosync must not pay for the synchronizer")
	}
	mc, _ := Compute(mcConfig(), baseCounters(), DefaultParams())
	if r.DynamicUW[CompInterco] != mc.DynamicUW[CompInterco] {
		t.Error("MC-nosync keeps the crossbar energy")
	}
}

func TestLeakageFollowsBankCounts(t *testing.T) {
	p := DefaultParams()
	few := mcConfig()
	few.ActiveDMBanks = 3
	many := mcConfig()
	rf, _ := Compute(few, baseCounters(), p)
	rm, _ := Compute(many, baseCounters(), p)
	wantDelta := p.DMBankLeakUW * 13 * p.LeakScale(0.5)
	if got := rm.LeakUW[CompDMem] - rf.LeakUW[CompDMem]; math.Abs(got-wantDelta) > 1e-9 {
		t.Errorf("DM leakage delta = %v, want %v", got, wantDelta)
	}
}

func TestComputeErrors(t *testing.T) {
	if _, err := Compute(SystemConfig{FreqHz: 0}, baseCounters(), DefaultParams()); err == nil {
		t.Error("want error for zero frequency")
	}
	if _, err := Compute(mcConfig(), &Counters{}, DefaultParams()); err == nil {
		t.Error("want error for zero cycles")
	}
}

func TestBroadcastPercentages(t *testing.T) {
	c := &Counters{IMReqs: 1000, IMAccesses: 600, DMReqs: 200, DMReads: 150, DMWrites: 44}
	if got := c.IMBroadcastPct(); math.Abs(got-40) > 1e-9 {
		t.Errorf("IMBroadcastPct = %v, want 40", got)
	}
	if got := c.DMBroadcastPct(); math.Abs(got-3) > 1e-9 {
		t.Errorf("DMBroadcastPct = %v, want 3", got)
	}
	empty := &Counters{}
	if empty.IMBroadcastPct() != 0 || empty.DMBroadcastPct() != 0 {
		t.Error("empty counters must report 0% broadcast")
	}
}

func TestRuntimeOverheadPct(t *testing.T) {
	c := &Counters{Instrs: 10_000, SyncInstrs: 165}
	if got := c.RuntimeOverheadPct(); math.Abs(got-1.65) > 1e-9 {
		t.Errorf("RuntimeOverheadPct = %v, want 1.65", got)
	}
}

func TestCountersAdd(t *testing.T) {
	a := baseCounters()
	b := baseCounters()
	sum := &Counters{}
	sum.Add(a)
	sum.Add(b)
	if sum.Cycles != 2*a.Cycles || sum.DMWrites != 2*a.DMWrites || sum.SyncOps != 2*a.SyncOps {
		t.Error("Add did not double the counters")
	}
}

func TestVFSMinVoltage(t *testing.T) {
	vfs := DefaultVFS()
	// The paper's operating points: MC at 1.0 MHz -> 0.5 V; SC between
	// 2.3 and 3.4 MHz -> 0.6 V.
	op, err := MinVoltage(vfs, MC, 1.0e6)
	if err != nil || op.VoltageV != 0.5 {
		t.Errorf("MC@1MHz -> %v V (err %v), want 0.5", op.VoltageV, err)
	}
	for _, f := range []float64{2.3e6, 3.3e6, 3.4e6} {
		op, err := MinVoltage(vfs, SC, f)
		if err != nil || op.VoltageV != 0.6 {
			t.Errorf("SC@%.1fMHz -> %v V (err %v), want 0.6", f/1e6, op.VoltageV, err)
		}
	}
	// The same frequencies on the crossbar-limited MC fabric need more
	// voltage than on SC.
	opMC, err := MinVoltage(vfs, MC, 3.4e6)
	if err != nil || opMC.VoltageV <= 0.6 {
		t.Errorf("MC@3.4MHz -> %v V, want > 0.6", opMC.VoltageV)
	}
	if _, err := MinVoltage(vfs, MC, 1e9); err == nil {
		t.Error("want error for impossible frequency")
	}
}

func TestVFSTableMonotonic(t *testing.T) {
	vfs := DefaultVFS()
	for i := 1; i < len(vfs); i++ {
		if vfs[i].VoltageV <= vfs[i-1].VoltageV || vfs[i].FMaxMCHz <= vfs[i-1].FMaxMCHz {
			t.Errorf("VFS table not monotonic at row %d", i)
		}
	}
	for _, op := range vfs {
		if op.FMaxSCHz <= op.FMaxMCHz {
			t.Errorf("SC f_max must exceed MC f_max at %v V", op.VoltageV)
		}
	}
}

func TestClampFreq(t *testing.T) {
	if ClampFreq(0.3e6) != MinClockHz {
		t.Error("frequencies below the floor must clamp to 1 MHz")
	}
	if ClampFreq(2e6) != 2e6 {
		t.Error("frequencies above the floor must pass through")
	}
}

func TestQuickPowerMonotonicInVoltage(t *testing.T) {
	p := DefaultParams()
	c := baseCounters()
	f := func(rawV uint8) bool {
		v := 0.5 + float64(rawV%70)/100 // 0.5 .. 1.19
		lo := mcConfig()
		lo.VoltageV = v
		hi := mcConfig()
		hi.VoltageV = v + 0.01
		rl, err1 := Compute(lo, c, p)
		rh, err2 := Compute(hi, c, p)
		return err1 == nil && err2 == nil && rl.TotalUW < rh.TotalUW
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestQuickDecompositionSumsToTotal(t *testing.T) {
	p := DefaultParams()
	f := func(a, i, d, x uint32) bool {
		c := &Counters{
			Cycles:            1 + uint64(a%1e6),
			CoreActive:        uint64(a % 1e6),
			IMReqs:            uint64(i%1e6) + uint64(i%7),
			IMAccesses:        uint64(i % 1e6),
			DMReads:           uint64(d % 1e5),
			DMWrites:          uint64(d % 1e4),
			XbarReqs:          uint64(x % 1e6),
			UngatedCoreCycles: uint64(a % 1e6),
		}
		r, err := Compute(mcConfig(), c, p)
		if err != nil {
			return false
		}
		var sum float64
		for comp := Component(0); comp < NumComponents; comp++ {
			sum += r.ComponentUW(comp)
		}
		return math.Abs(sum-r.TotalUW) < 1e-6
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestArchStrings(t *testing.T) {
	if SC.String() != "SC" || MC.String() != "MC" || MCNoSync.String() != "MC-nosync" {
		t.Error("Arch String mismatch")
	}
	if SC.IsMulti() || !MC.IsMulti() || !MCNoSync.IsMulti() {
		t.Error("IsMulti mismatch")
	}
}

// TestParseArchSpec: names and structural specs parse to their
// descriptors, and invalid specs are rejected with an error naming the
// rule. A timeout above MaxTimeoutCycles would let the sync unit's
// deadline (cycle + timeout) wrap, which used to panic mid-run.
func TestParseArchSpec(t *testing.T) {
	good := map[string]Arch{
		"mc":                          MC,
		"MC-nosync":                   MCNoSync,
		"multi,groups=0x0F+0x18":      {Multi: true, Groups: [MaxSyncGroups]uint8{0x0F, 0x18}},
		"multi,timeout=50000000":      {Multi: true, TimeoutCycles: 50_000_000},
		"multi,timeout=1099511627776": {Multi: true, TimeoutCycles: MaxTimeoutCycles},
	}
	for spec, want := range good {
		if got, err := ParseArchSpec(spec); err != nil || got != want {
			t.Errorf("ParseArchSpec(%q) = %+v, %v; want %+v", spec, got, err, want)
		}
	}
	bad := map[string]string{
		"gpu":                                "unknown descriptor",
		"timeout=100":                        "require the multi-core fabric",
		"multi,busywait,timeout=100":         "busy-wait variant",
		"multi,groups=0x0F+0x00+0x18":        "sync group 1 is empty",
		"multi,timeout=1099511627777":        "exceeds the limit of 1099511627776 cycles",
		"multi,timeout=18446744073709551615": "exceeds the limit of 1099511627776 cycles",
	}
	for spec, want := range bad {
		_, err := ParseArchSpec(spec)
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("ParseArchSpec(%q) error = %v, want one containing %q", spec, err, want)
		}
	}
}

func TestComponentStrings(t *testing.T) {
	for comp := Component(0); comp < NumComponents; comp++ {
		if comp.String() == "" || comp.String()[0] == '?' {
			t.Errorf("component %d has no name", comp)
		}
	}
}

// counterLeaves flattens a Counters value into its scalar uint64 cells
// (array fields like SyncGroupOps contribute one leaf per element), with a
// name per leaf for failure messages. Any field of an unexpected kind fails
// the test, so the flattening cannot silently skip a future addition.
func counterLeaves(t *testing.T, c *Counters) (leaves []reflect.Value, names []string) {
	t.Helper()
	v := reflect.ValueOf(c).Elem()
	for i := 0; i < v.NumField(); i++ {
		f := v.Field(i)
		name := v.Type().Field(i).Name
		switch f.Kind() {
		case reflect.Uint64:
			leaves = append(leaves, f)
			names = append(names, name)
		case reflect.Array:
			for j := 0; j < f.Len(); j++ {
				leaves = append(leaves, f.Index(j))
				names = append(names, fmt.Sprintf("%s[%d]", name, j))
			}
		default:
			t.Fatalf("Counters field %s has unexpected kind %v", name, f.Kind())
		}
	}
	return leaves, names
}

// TestCountersDiffAddScaled checks the spin fast-forward's bulk-accounting
// contract over every field by reflection, so a counter added to the struct
// but forgotten in Diff or AddScaled fails here instead of silently
// diverging a leap from the cycle-by-cycle reference.
func TestCountersDiffAddScaled(t *testing.T) {
	var base, now Counters
	bl, _ := counterLeaves(t, &base)
	nl, _ := counterLeaves(t, &now)
	for i := range bl {
		bl[i].SetUint(uint64(100 + i))
		nl[i].SetUint(uint64(100 + i + 3*(i+1))) // delta 3*(i+1) per leaf
	}
	d := now.Diff(&base)
	dl, dn := counterLeaves(t, &d)
	for i := range dl {
		if got, want := dl[i].Uint(), uint64(3*(i+1)); got != want {
			t.Errorf("Diff field %s = %d, want %d", dn[i], got, want)
		}
	}
	sum := base
	sum.AddScaled(&d, 5)
	sl, sn := counterLeaves(t, &sum)
	for i := range sl {
		if got, want := sl[i].Uint(), uint64(100+i)+5*uint64(3*(i+1)); got != want {
			t.Errorf("AddScaled field %s = %d, want %d", sn[i], got, want)
		}
	}
}
