package mem

import (
	"testing"
	"testing/quick"

	"repro/internal/isa"
)

func TestIMemLoadFetch(t *testing.T) {
	m := NewIMem()
	code := []isa.Word{
		isa.MustEncode(isa.Instr{Op: isa.OpADDI, Rd: 1, Rs1: 0, Imm: 7}),
		isa.MustEncode(isa.Instr{Op: isa.OpHALT}),
	}
	if err := m.Load(100, code); err != nil {
		t.Fatal(err)
	}
	ins, ok := m.Fetch(100)
	if !ok || ins.Op != isa.OpADDI || ins.Imm != 7 {
		t.Errorf("Fetch(100) = %v, %v", ins, ok)
	}
	if m.Word(101) != code[1] {
		t.Error("raw word mismatch")
	}
	if m.ActiveBanks() != 1 {
		t.Errorf("ActiveBanks = %d, want 1", m.ActiveBanks())
	}
}

func TestIMemLoadPowersSpannedBanks(t *testing.T) {
	m := NewIMem()
	code := make([]isa.Word, 2) // straddles the bank 0/1 boundary
	if err := m.Load(isa.IMBankWords-1, code); err != nil {
		t.Fatal(err)
	}
	if !m.BankOn(0) || !m.BankOn(1) || m.BankOn(2) {
		t.Error("bank power after spanning load is wrong")
	}
	if m.ActiveBanks() != 2 {
		t.Errorf("ActiveBanks = %d, want 2", m.ActiveBanks())
	}
}

func TestIMemFetchFromOffBankFails(t *testing.T) {
	m := NewIMem()
	if _, ok := m.Fetch(0); ok {
		t.Error("fetch from powered-off bank must fail")
	}
	if _, ok := m.Fetch(-1); ok {
		t.Error("negative pc must fail")
	}
	if _, ok := m.Fetch(isa.IMWords); ok {
		t.Error("out-of-range pc must fail")
	}
}

func TestIMemLoadBounds(t *testing.T) {
	m := NewIMem()
	if err := m.Load(isa.IMWords-1, make([]isa.Word, 2)); err == nil {
		t.Error("overflowing load must fail")
	}
	if err := m.Load(-1, make([]isa.Word, 1)); err == nil {
		t.Error("negative base must fail")
	}
}

func TestDMemReadWrite(t *testing.T) {
	m := NewDMem()
	m.SetBankPower(3, true)
	if !m.Write(3, 17, 0xBEEF) {
		t.Fatal("write failed")
	}
	v, ok := m.Read(3, 17)
	if !ok || v != 0xBEEF {
		t.Errorf("Read = %#x, %v", v, ok)
	}
	if _, ok := m.Read(4, 17); ok {
		t.Error("read from off bank must fail")
	}
	if m.Write(4, 17, 1) {
		t.Error("write to off bank must fail")
	}
	if _, ok := m.Read(3, isa.DMBankWords); ok {
		t.Error("offset out of range must fail")
	}
	if _, ok := m.Read(isa.DMBanks, 0); ok {
		t.Error("bank out of range must fail")
	}
	if m.ActiveBanks() != 1 {
		t.Errorf("ActiveBanks = %d, want 1", m.ActiveBanks())
	}
}

func TestATUSharedInterleavesAcrossAllBanks(t *testing.T) {
	atu := ATU{SharedLimit: 0x2000, PrivWords: 0x0C00}
	seen := map[int]bool{}
	for a := 0; a < 64; a++ {
		bank, _ := atu.Map(0, uint16(a))
		seen[bank] = true
	}
	if len(seen) != isa.DMBanks {
		t.Errorf("64 consecutive shared words touch %d banks, want %d", len(seen), isa.DMBanks)
	}
	// Same shared address maps identically for every core (that is what
	// makes broadcasting possible).
	for core := 0; core < 8; core++ {
		b, o := atu.Map(core, 0x123)
		b0, o0 := atu.Map(0, 0x123)
		if b != b0 || o != o0 {
			t.Errorf("core %d maps shared 0x123 to (%d,%d), core 0 to (%d,%d)", core, b, o, b0, o0)
		}
	}
}

func TestATUPrivateDistinctPerCore(t *testing.T) {
	atu := ATU{SharedLimit: 0x2000, PrivWords: 0x0C00}
	type loc struct{ b, o int }
	seen := map[loc]int{}
	for core := 0; core < 8; core++ {
		for a := 0; a < 256; a++ {
			b, o := atu.Map(core, uint16(0x2000+a))
			l := loc{b, o}
			if prev, dup := seen[l]; dup {
				t.Fatalf("cores %d and %d collide at physical (%d,%d)", prev, core, b, o)
			}
			seen[l] = core
		}
	}
}

func TestATUQuickNoAliasingWithinCapacity(t *testing.T) {
	atu := ATU{SharedLimit: 0x1000, PrivWords: (isa.DMWords - 0x1000) / 8}
	f := func(core1, core2 uint8, a1, a2 uint16) bool {
		c1, c2 := int(core1%8), int(core2%8)
		// Constrain addresses into the valid logical window.
		limit := uint16(0x1000 + atu.PrivWords)
		a1 %= limit
		a2 %= limit
		b1, o1 := atu.Map(c1, a1)
		b2, o2 := atu.Map(c2, a2)
		same := b1 == b2 && o1 == o2
		// Physical collision is allowed only when it is the same logical
		// word: same address in the shared region, or same core and
		// address in the private region.
		shared1, shared2 := a1 < 0x1000, a2 < 0x1000
		legal := (a1 == a2 && shared1 && shared2) || (a1 == a2 && c1 == c2)
		if same && !legal {
			return false
		}
		if a1 == a2 && (shared1 || c1 == c2) && !same {
			return false // same logical word must map to same physical word
		}
		return b1 >= 0 && b1 < isa.DMBanks && o1 >= 0 && o1 < isa.DMBankWords &&
			b2 >= 0 && b2 < isa.DMBanks && o2 >= 0 && o2 < isa.DMBankWords
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 5000}); err != nil {
		t.Error(err)
	}
}

func TestLinearMapFillsBanksSequentially(t *testing.T) {
	lin := LinearMap{}
	b, o := lin.Map(0, 0)
	if b != 0 || o != 0 {
		t.Error("address 0 must map to bank 0 offset 0")
	}
	b, _ = lin.Map(0, uint16(isa.DMBankWords-1))
	if b != 0 {
		t.Error("last word of bank 0 mapped elsewhere")
	}
	b, o = lin.Map(0, uint16(isa.DMBankWords))
	if b != 1 || o != 0 {
		t.Error("first word of bank 1 mapped elsewhere")
	}
	// 3 KWords of data touch exactly 2 banks: this is how the single-core
	// baseline keeps unused banks powered off.
	banks := map[int]bool{}
	for a := 0; a < 3*1024; a++ {
		b, _ := lin.Map(0, uint16(a))
		banks[b] = true
	}
	if len(banks) != 2 {
		t.Errorf("3KW touch %d banks under linear mapping, want 2", len(banks))
	}
}

func TestMapperNames(t *testing.T) {
	if (ATU{}).Name() == (LinearMap{}).Name() {
		t.Error("mapper names must differ")
	}
}
