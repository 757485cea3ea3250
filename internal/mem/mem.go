// Package mem models the platform's multi-banked instruction and data
// memories (paper §III-A): banks are independently readable/writable and can
// be powered off when unused to save energy. Access arbitration, conflict
// handling and broadcast merging live in internal/interco; this package is
// the storage, the power state and the address-mapping policies (the ATU's
// interleaving and the single-core linear decoder).
package mem

import (
	"fmt"

	"repro/internal/isa"
)

// IMem is the banked instruction memory. Words are pre-decoded at load time:
// the contents are immutable during simulation, so decoding once keeps the
// cycle loop fast without changing architectural behaviour.
type IMem struct {
	words   []isa.Word
	decoded []isa.Instr
	bankOn  [isa.IMBanks]bool
}

// NewIMem returns an instruction memory with every bank powered off.
func NewIMem() *IMem {
	return &IMem{
		words:   make([]isa.Word, isa.IMWords),
		decoded: make([]isa.Instr, isa.IMWords),
	}
}

// Load places code at word address base and powers on the banks it covers.
func (m *IMem) Load(base int, code []isa.Word) error {
	if base < 0 || base+len(code) > isa.IMWords {
		return fmt.Errorf("mem: code segment [%d,%d) outside instruction memory", base, base+len(code))
	}
	for i, w := range code {
		m.words[base+i] = w
		m.decoded[base+i] = isa.Decode(w)
	}
	for b := isa.IMBankOf(base); b <= isa.IMBankOf(base+len(code)-1); b++ {
		m.bankOn[b] = true
	}
	return nil
}

// SetBankPower forces a bank's power state (the builder decides which banks
// stay on).
func (m *IMem) SetBankPower(bank int, on bool) { m.bankOn[bank] = on }

// BankOn reports whether a bank is powered.
func (m *IMem) BankOn(bank int) bool { return m.bankOn[bank] }

// ActiveBanks counts powered banks (Table I's "Active IM banks").
func (m *IMem) ActiveBanks() int {
	n := 0
	for _, on := range m.bankOn {
		if on {
			n++
		}
	}
	return n
}

// Fetch returns the pre-decoded instruction at pc. ok is false when pc is out
// of range or its bank is powered off (an architectural fault).
func (m *IMem) Fetch(pc int) (isa.Instr, bool) {
	if pc < 0 || pc >= isa.IMWords || !m.bankOn[isa.IMBankOf(pc)] {
		return isa.Instr{}, false
	}
	return m.decoded[pc], true
}

// Word returns the raw instruction word at pc, for dumps and disassembly.
func (m *IMem) Word(pc int) isa.Word { return m.words[pc] }

// DMem is the banked data memory, addressed physically as (bank, offset).
type DMem struct {
	// banks[b][o]: flat storage laid out bank-major.
	words  []uint16
	bankOn [isa.DMBanks]bool
}

// NewDMem returns a data memory with every bank powered off.
func NewDMem() *DMem {
	return &DMem{words: make([]uint16, isa.DMWords)}
}

// SetBankPower forces a bank's power state.
func (m *DMem) SetBankPower(bank int, on bool) { m.bankOn[bank] = on }

// BankOn reports whether a bank is powered.
func (m *DMem) BankOn(bank int) bool { return m.bankOn[bank] }

// ActiveBanks counts powered banks (Table I's "Active DM banks").
func (m *DMem) ActiveBanks() int {
	n := 0
	for _, on := range m.bankOn {
		if on {
			n++
		}
	}
	return n
}

func (m *DMem) index(bank, offset int) (int, bool) {
	if bank < 0 || bank >= isa.DMBanks || offset < 0 || offset >= isa.DMBankWords {
		return 0, false
	}
	return bank*isa.DMBankWords + offset, m.bankOn[bank]
}

// Read returns the word at (bank, offset); ok is false on a powered-off bank
// or out-of-range access.
func (m *DMem) Read(bank, offset int) (uint16, bool) {
	i, ok := m.index(bank, offset)
	if !ok {
		return 0, false
	}
	return m.words[i], true
}

// Write stores v at (bank, offset); ok is false on a powered-off bank or
// out-of-range access.
func (m *DMem) Write(bank, offset int, v uint16) bool {
	i, ok := m.index(bank, offset)
	if !ok {
		return false
	}
	m.words[i] = v
	return true
}

// DMemState is the deep-copied content and power state of a data memory,
// captured by Snapshot and reinstated by Restore (platform checkpoints).
type DMemState struct {
	Words  []uint16
	BankOn [isa.DMBanks]bool
}

// Snapshot deep-copies the memory's words and per-bank power state.
func (m *DMem) Snapshot() DMemState {
	return DMemState{Words: append([]uint16(nil), m.words...), BankOn: m.bankOn}
}

// Restore reinstates a previously captured state.
func (m *DMem) Restore(st DMemState) error {
	if len(st.Words) != len(m.words) {
		return fmt.Errorf("mem: restoring %d data words onto a %d-word memory", len(st.Words), len(m.words))
	}
	copy(m.words, st.Words)
	m.bankOn = st.BankOn
	return nil
}

// Mapper translates a core's logical data address into a physical bank and
// offset. The multi-core platform uses the ATU's interleaving; the
// single-core baseline a linear decoder.
type Mapper interface {
	// Map translates addr for the given core. MMIO addresses never reach
	// the mapper.
	Map(core int, addr uint16) (bank, offset int)
	// BanksTouched returns how many banks the mapping can reach given the
	// data actually placed, to size the active-bank set.
	Name() string
}

// ATU is the multi-core Address Translation Unit (paper §IV-A): a
// combinational unit that appends a per-core tag to private-section accesses.
// Both the shared section and the tagged private sections are interleaved
// word-by-word across all DM banks, which is why every bank must stay
// powered in the multi-core configuration (paper §V-A).
type ATU struct {
	// SharedLimit is the first private logical address: [0, SharedLimit)
	// is shared, [SharedLimit, MMIOBase) is per-core private.
	SharedLimit uint16
	// PrivWords is the physical allocation per core behind the tag.
	PrivWords int
}

// Map implements Mapper.
func (a ATU) Map(core int, addr uint16) (bank, offset int) {
	eff := int(addr)
	if addr >= a.SharedLimit {
		eff = int(a.SharedLimit) + core*a.PrivWords + int(addr-a.SharedLimit)
	}
	return eff & (isa.DMBanks - 1), eff / isa.DMBanks
}

// Name implements Mapper.
func (ATU) Name() string { return "atu-interleaved" }

// LinearMap is the single-core decoder: consecutive addresses fill one bank
// before spilling into the next, so unused banks can be powered off.
type LinearMap struct{}

// Map implements Mapper.
func (LinearMap) Map(_ int, addr uint16) (bank, offset int) {
	return int(addr) / isa.DMBankWords, int(addr) % isa.DMBankWords
}

// Name implements Mapper.
func (LinearMap) Name() string { return "linear" }
