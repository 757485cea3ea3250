// Package power implements the energy/power model of the WBSN platform.
//
// Counters also publish themselves into the observability layer's metrics
// registry (internal/obs), the uniform stats surface the CLIs expose.
//
// Following the paper's methodology (§IV-C), the architectural simulator is
// annotated with per-component energy costs (the paper derives them from
// post-layout RTL simulation in a 90 nm low-leakage process; here they are
// plausible constants calibrated so the absolute numbers land near Table I).
// Activity counters collected during simulation are combined with the
// operating voltage and frequency to produce average-power figures and the
// per-component decomposition of Figure 6.
package power

import "repro/internal/obs"

// Counters accumulates architectural activity during a simulation run. All
// platform components share one instance.
type Counters struct {
	// Cycles is the number of simulated platform clock cycles.
	Cycles uint64

	// Core activity, summed over all instantiated cores.
	CoreActive uint64 // cycles that executed an instruction
	CoreStall  uint64 // cycles stalled on a memory-bank conflict
	CoreGated  uint64 // cycles spent clock-gated (SLEEP)
	CoreHalted uint64 // cycles after HALT (power-gated, free)

	// Instrs counts executed instructions; SyncInstrs the subset belonging
	// to the sync ISE (SINC/SDEC/SNOP/SLEEP) for the paper's run-time
	// overhead metric; BranchBubbles the taken-branch pipeline bubbles.
	Instrs        uint64
	SyncInstrs    uint64
	BranchBubbles uint64

	// Instruction-memory traffic. Requests counts core fetch attempts;
	// Accesses counts bank reads actually performed after broadcast
	// merging. Requests-Accesses is the energy saved by lock-step.
	IMReqs     uint64
	IMAccesses uint64
	IMConflict uint64 // requests delayed by a bank conflict

	// Data-memory traffic, with the same request/access distinction.
	DMReqs     uint64
	DMReads    uint64
	DMWrites   uint64
	DMConflict uint64

	// Memory-mapped I/O accesses (outside the banked arrays).
	MMIOReads  uint64
	MMIOWrites uint64

	// Interconnect requests routed (crossbar in MC, decoder in SC).
	XbarReqs uint64

	// Synchronizer activity.
	SyncOps         uint64 // SINC/SDEC/SNOP/SEVS operations committed
	SyncMerged      uint64 // operations merged into another same-cycle op
	SyncWakes       uint64 // core wake-ups issued
	SyncPointWrites uint64 // read-modify-writes of sync points in shared DM
	SyncTimeouts    uint64 // per-core wait timeouts fired (timeout IRQs raised)

	// SyncGroupOps splits SyncOps by the sync group the operation targeted
	// (descriptors with one implicit all-core barrier accumulate only
	// group 0, matching the paper presets).
	SyncGroupOps [MaxSyncGroups]uint64

	// UngatedCoreCycles feeds the clock-tree leaf energy: the sum over all
	// cycles of the number of cores receiving a clock (active or stalled).
	UngatedCoreCycles uint64

	// Peripheral activity.
	IRQs       uint64
	ADCSamples uint64
}

// AddIdleCycles accounts n platform cycles during which gated cores stayed
// clock-gated, halted cores stayed power-gated, and nothing else happened —
// the bulk path used by the simulator's idle fast-forward engine. It must
// mutate exactly the counters a cycle-by-cycle idle run would (Cycles, plus
// CoreGated/CoreHalted per core), so energy numbers stay bit-identical
// between the exact and fast-forward simulation modes.
func (c *Counters) AddIdleCycles(n, gatedCores, haltedCores uint64) {
	c.Cycles += n
	c.CoreGated += n * gatedCores
	c.CoreHalted += n * haltedCores
}

// StrideDelta is the bulk counter flush of one block-engine stride: the
// activity a straight-line stretch accumulated, applied in one shot instead
// of per cycle. Both the single-core block path and the multi-core stride
// path fill one of these, so the counter mapping — which fields a stride may
// touch, and that interconnect traffic is exactly the fetch and data
// requests issued — lives in one place.
//
// A stride by construction contains no MMIO and no sync ISE, so the MMIO and
// sync counters have no delta. Bank conflicts are arbitrated cycle by cycle
// exactly as Step arbitrates them: a stalled request counts as issued in
// IMReqs/DMReqs and as a conflict, and its core-cycle as a stall.
type StrideDelta struct {
	Cycles uint64 // platform cycles covered by the stride
	Instrs uint64 // instructions executed

	ActiveCycles  uint64 // core-cycles that executed (CoreActive)
	StallCycles   uint64 // bubble and conflict-stall core-cycles (CoreStall)
	BranchBubbles uint64 // taken branches
	UngatedCycles uint64 // core-cycles receiving a clock (active or stalled)
	GatedCycles   uint64 // core-cycles spent clock-gated alongside the stride
	HaltedCycles  uint64 // core-cycles spent power-gated alongside the stride

	IMReqs     uint64 // fetch requests issued
	IMAccesses uint64 // bank reads performed after broadcast merging
	IMConflict uint64 // fetch requests stalled by a bank conflict
	DMReqs     uint64 // data requests issued
	DMReads    uint64 // bank reads performed (merged riders excluded)
	DMWrites   uint64 // bank writes performed
	DMConflict uint64 // data requests stalled by a bank conflict
}

// AddStride accounts one block-engine stride. It must mutate exactly the
// counters a cycle-by-cycle run of the same stretch would, so the fast paths
// stay bit-identical to the exact engine.
func (c *Counters) AddStride(d StrideDelta) {
	c.Cycles += d.Cycles
	c.Instrs += d.Instrs
	c.CoreActive += d.ActiveCycles
	c.CoreStall += d.StallCycles
	c.BranchBubbles += d.BranchBubbles
	c.UngatedCoreCycles += d.UngatedCycles
	c.CoreGated += d.GatedCycles
	c.CoreHalted += d.HaltedCycles
	c.IMReqs += d.IMReqs
	c.IMAccesses += d.IMAccesses
	c.IMConflict += d.IMConflict
	c.DMReqs += d.DMReqs
	c.DMReads += d.DMReads
	c.DMWrites += d.DMWrites
	c.DMConflict += d.DMConflict
	// Every fetch and data request, granted or stalled, crossed the
	// interconnect.
	c.XbarReqs += d.IMReqs + d.DMReqs
}

// IMBroadcastPct returns the share of fetch requests satisfied by a merged
// (broadcast) access instead of a dedicated bank read, in percent. This is
// Table I's "IM Broadcast (%)".
func (c *Counters) IMBroadcastPct() float64 {
	if c.IMReqs == 0 {
		return 0
	}
	return 100 * float64(c.IMReqs-c.IMAccesses) / float64(c.IMReqs)
}

// DMBroadcastPct returns the share of data requests satisfied by a merged
// access, in percent ("DM Broadcast (%)").
func (c *Counters) DMBroadcastPct() float64 {
	if c.DMReqs == 0 {
		return 0
	}
	accesses := c.DMReads + c.DMWrites
	if accesses > c.DMReqs {
		return 0
	}
	return 100 * float64(c.DMReqs-accesses) / float64(c.DMReqs)
}

// RuntimeOverheadPct returns the dynamically executed sync-ISE instructions
// as a share of all executed instructions ("Run-time Overhead (%)").
func (c *Counters) RuntimeOverheadPct() float64 {
	if c.Instrs == 0 {
		return 0
	}
	return 100 * float64(c.SyncInstrs) / float64(c.Instrs)
}

// Publish writes every activity counter into reg under the "counters."
// namespace, in the registry's canonical snake_case naming. The per-group
// operation split publishes all MaxSyncGroups entries so the exported
// document's key set does not depend on the workload.
func (c *Counters) Publish(reg *obs.Registry) {
	if reg == nil {
		return
	}
	reg.Add("counters.cycles", c.Cycles)
	reg.Add("counters.core_active", c.CoreActive)
	reg.Add("counters.core_stall", c.CoreStall)
	reg.Add("counters.core_gated", c.CoreGated)
	reg.Add("counters.core_halted", c.CoreHalted)
	reg.Add("counters.instrs", c.Instrs)
	reg.Add("counters.sync_instrs", c.SyncInstrs)
	reg.Add("counters.branch_bubbles", c.BranchBubbles)
	reg.Add("counters.im_reqs", c.IMReqs)
	reg.Add("counters.im_accesses", c.IMAccesses)
	reg.Add("counters.im_conflict", c.IMConflict)
	reg.Add("counters.dm_reqs", c.DMReqs)
	reg.Add("counters.dm_reads", c.DMReads)
	reg.Add("counters.dm_writes", c.DMWrites)
	reg.Add("counters.dm_conflict", c.DMConflict)
	reg.Add("counters.mmio_reads", c.MMIOReads)
	reg.Add("counters.mmio_writes", c.MMIOWrites)
	reg.Add("counters.xbar_reqs", c.XbarReqs)
	reg.Add("counters.sync_ops", c.SyncOps)
	reg.Add("counters.sync_merged", c.SyncMerged)
	reg.Add("counters.sync_wakes", c.SyncWakes)
	reg.Add("counters.sync_point_writes", c.SyncPointWrites)
	reg.Add("counters.sync_timeouts", c.SyncTimeouts)
	for g, n := range c.SyncGroupOps {
		reg.Add(syncGroupOpsName[g], n)
	}
	reg.Add("counters.ungated_core_cycles", c.UngatedCoreCycles)
	reg.Add("counters.irqs", c.IRQs)
	reg.Add("counters.adc_samples", c.ADCSamples)
}

var syncGroupOpsName = [MaxSyncGroups]string{
	"counters.sync_group_ops.g0",
	"counters.sync_group_ops.g1",
	"counters.sync_group_ops.g2",
	"counters.sync_group_ops.g3",
}

// Add accumulates o into c, for aggregating runs.
func (c *Counters) Add(o *Counters) {
	c.Cycles += o.Cycles
	c.CoreActive += o.CoreActive
	c.CoreStall += o.CoreStall
	c.CoreGated += o.CoreGated
	c.CoreHalted += o.CoreHalted
	c.Instrs += o.Instrs
	c.SyncInstrs += o.SyncInstrs
	c.BranchBubbles += o.BranchBubbles
	c.IMReqs += o.IMReqs
	c.IMAccesses += o.IMAccesses
	c.IMConflict += o.IMConflict
	c.DMReqs += o.DMReqs
	c.DMReads += o.DMReads
	c.DMWrites += o.DMWrites
	c.DMConflict += o.DMConflict
	c.MMIOReads += o.MMIOReads
	c.MMIOWrites += o.MMIOWrites
	c.XbarReqs += o.XbarReqs
	c.SyncOps += o.SyncOps
	c.SyncMerged += o.SyncMerged
	c.SyncWakes += o.SyncWakes
	c.SyncPointWrites += o.SyncPointWrites
	c.SyncTimeouts += o.SyncTimeouts
	for g := range c.SyncGroupOps {
		c.SyncGroupOps[g] += o.SyncGroupOps[g]
	}
	c.UngatedCoreCycles += o.UngatedCoreCycles
	c.IRQs += o.IRQs
	c.ADCSamples += o.ADCSamples
}
