package power

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
)

// The descriptor registry maps names to sync-architecture descriptors both
// ways. The three paper presets are pre-registered; scenario files and the
// CLIs register the custom descriptors they declare, so progress output and
// tables render them by name. The registry is the single source of the
// default architecture lists (PaperArchs, PresetArchs) the grid builders and
// both CLIs derive their axes from.
var (
	regMu      sync.RWMutex
	archByName = map[string]Arch{}
	nameByArch = map[Arch]string{}
)

func init() {
	for _, p := range []struct {
		name string
		arch Arch
	}{
		{"SC", SC},
		{"MC", MC},
		{"MC-nosync", MCNoSync},
	} {
		if err := RegisterArch(p.name, p.arch); err != nil {
			panic(err)
		}
	}
}

// RegisterArch binds a name to a descriptor. Lookup is case-insensitive; the
// given capitalization is kept for display. Re-registering the same
// (name, descriptor) pair is a no-op, so scenario reloads stay idempotent;
// binding an existing name to a different descriptor is an error.
func RegisterArch(name string, a Arch) error {
	if strings.TrimSpace(name) == "" {
		return fmt.Errorf("power: empty descriptor name")
	}
	key := strings.ToLower(name)
	regMu.Lock()
	defer regMu.Unlock()
	if prev, ok := archByName[key]; ok {
		if prev != a {
			return fmt.Errorf("power: descriptor name %q already bound to %s", name, prev.Key())
		}
		return nil
	}
	archByName[key] = a
	// First registration wins the display name (the presets keep theirs).
	if _, ok := nameByArch[a]; !ok {
		nameByArch[a] = name
	}
	return nil
}

// ArchByName resolves a registered descriptor name, case-insensitively.
func ArchByName(name string) (Arch, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	a, ok := archByName[strings.ToLower(name)]
	return a, ok
}

// ArchName returns the display name a descriptor was first registered under.
func ArchName(a Arch) (string, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	name, ok := nameByArch[a]
	return name, ok
}

// ArchNames lists the registered lookup names in lexical order, for error
// messages.
func ArchNames() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(archByName))
	for name := range archByName {
		names = append(names, name)
	}
	for i := 1; i < len(names); i++ {
		for j := i; j > 0 && names[j] < names[j-1]; j-- {
			names[j], names[j-1] = names[j-1], names[j]
		}
	}
	return names
}

// PaperArchs is the default architecture pairing of Table I and the bundled
// scenarios: the single-core baseline against the proposed multi-core system.
func PaperArchs() []Arch { return []Arch{SC, MC} }

// PresetArchs are all three paper variants in Figure 6's bar order.
func PresetArchs() []Arch { return []Arch{SC, MCNoSync, MC} }

// ParseArchSpec parses a command-line descriptor selection: either a
// registered name ("MC", "sc", a scenario-registered custom name) or a
// comma-separated structural spec of the fields, e.g.
//
//	multi,groups=0x0F+0x18,timeout=50000000
//
// with the terms "multi", "busywait", "groups=<mask>[+<mask>...]" (up to
// MaxSyncGroups masks, each core bit set in at most the declared cores) and
// "timeout=<cycles>".
func ParseArchSpec(spec string) (Arch, error) {
	spec = strings.TrimSpace(spec)
	if a, ok := ArchByName(spec); ok {
		return a, nil
	}
	var a Arch
	structural := false
	for _, term := range strings.Split(spec, ",") {
		term = strings.TrimSpace(term)
		switch {
		case term == "multi":
			a.Multi = true
			structural = true
		case term == "busywait":
			a.BusyWait = true
			structural = true
		case strings.HasPrefix(term, "groups="):
			masks := strings.Split(strings.TrimPrefix(term, "groups="), "+")
			if len(masks) > MaxSyncGroups {
				return Arch{}, fmt.Errorf("power: %d sync groups exceed the maximum of %d", len(masks), MaxSyncGroups)
			}
			for g, m := range masks {
				v, err := strconv.ParseUint(strings.TrimSpace(m), 0, 8)
				if err != nil {
					return Arch{}, fmt.Errorf("power: bad group mask %q: %v", m, err)
				}
				a.Groups[g] = uint8(v)
			}
			structural = true
		case strings.HasPrefix(term, "timeout="):
			v, err := strconv.ParseUint(strings.TrimPrefix(term, "timeout="), 0, 64)
			if err != nil {
				return Arch{}, fmt.Errorf("power: bad timeout %q: %v", term, err)
			}
			a.TimeoutCycles = v
			structural = true
		default:
			return Arch{}, fmt.Errorf("power: unknown descriptor %q (known names: %s; or a spec of multi, busywait, groups=, timeout=)",
				spec, strings.Join(ArchNames(), ", "))
		}
	}
	if !structural {
		return Arch{}, fmt.Errorf("power: empty descriptor spec")
	}
	if err := a.Validate(); err != nil {
		return Arch{}, err
	}
	return a, nil
}

// Validate checks a descriptor's internal consistency: group masks and
// timeouts require the multi-core fabric, a busy-wait variant has no sync
// unit to configure, and a timeout is at most MaxTimeoutCycles.
func (a Arch) Validate() error {
	custom := a.Groups != [MaxSyncGroups]uint8{} || a.TimeoutCycles != 0
	if custom && !a.Multi {
		return fmt.Errorf("power: sync groups/timeouts require the multi-core fabric")
	}
	if custom && a.BusyWait {
		return fmt.Errorf("power: busy-wait variant has no sync unit to configure")
	}
	if a.TimeoutCycles > MaxTimeoutCycles {
		return fmt.Errorf("power: sync timeout of %d cycles exceeds the limit of %d cycles (2^40)", a.TimeoutCycles, uint64(MaxTimeoutCycles))
	}
	for g := 0; g < MaxSyncGroups; g++ {
		if a.Groups[g] == 0 && a.Groups != [MaxSyncGroups]uint8{} && g < a.NumGroups() {
			return fmt.Errorf("power: sync group %d is empty", g)
		}
	}
	return nil
}
