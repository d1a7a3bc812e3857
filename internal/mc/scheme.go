package mc

import "mithril/internal/timing"

// Scheme is the controller-side view of a RowHammer mitigation. It is
// defined here (consumer side) so both MC-located schemes (Graphene, CBT,
// BlockHammer, PARA) and DRAM-located schemes behind the RFM interface
// (Mithril, PARFM) plug into the same controller. Implementations live in
// internal/mitigation; each embeds NoProtection and declares only the
// hooks it acts in.
//
// Every hook is reactive: a scheme acts only when the controller reports
// an ACT, asks for a throttle release, polls the skip flag, or issues an
// RFM. Throttle release times reach the event calendar through the
// per-request blocked deadlines PreACTDelay sets.
type Scheme interface {
	// Name identifies the scheme in reports.
	Name() string

	// RFMCompatible reports whether the controller should run RAA counters
	// and issue RFM commands for this scheme (Figure 1).
	RFMCompatible() bool

	// RFMTH is the RAA threshold when RFMCompatible; ignored otherwise.
	RFMTH() int

	// OnActivate observes one real ACT command (coreID is negative for an
	// activation no core owns). ARR-based schemes return victim rows that
	// must be refreshed immediately (the controller opens an ARR
	// maintenance window for them); RFM-based schemes return nil.
	//
	// The returned slice is owned by the scheme and only valid until its
	// next OnActivate/OnRFM call — schemes reuse one victim buffer to keep
	// the ACT hot path allocation-free. Callers that retain victims (the
	// controller's pending-ARR queue) must copy them.
	OnActivate(globalBank int, row uint32, coreID int, now timing.PicoSeconds) (arrVictims []uint32)

	// PreACTDelay lets throttling schemes (BlockHammer) postpone an ACT:
	// the returned time is the earliest the activation may start (zero
	// means no restriction). coreID enables thread-level throttling.
	PreACTDelay(globalBank int, row uint32, coreID int, now timing.PicoSeconds) timing.PicoSeconds

	// OnRFM is invoked when the controller issues an RFM command to a
	// bank; the scheme returns the victim rows it refreshes inside the
	// tRFM window (empty when it decides to idle, e.g. adaptive skip).
	// The returned slice follows the same reuse contract as OnActivate's.
	OnRFM(globalBank int, now timing.PicoSeconds) (victims []uint32)

	// SkipRFM is the Mithril+ MRR poll: when it reports true at the
	// moment RAA reaches RFMTH, the controller resets the RAA counter
	// without issuing the RFM command.
	SkipRFM(globalBank int) bool
}

// NoProtection is the do-nothing baseline scheme ("none") and the set of
// default hooks every other scheme embeds: no RFM interface, no throttle,
// no victims and no skip.
type NoProtection struct{}

// Name implements Scheme.
func (NoProtection) Name() string { return "none" }

// RFMCompatible implements Scheme.
func (NoProtection) RFMCompatible() bool { return false }

// RFMTH implements Scheme.
func (NoProtection) RFMTH() int { return 0 }

// OnActivate implements Scheme.
//
//mithril:hotpath
func (NoProtection) OnActivate(int, uint32, int, timing.PicoSeconds) []uint32 { return nil }

// PreACTDelay implements Scheme.
//
//mithril:hotpath
func (NoProtection) PreACTDelay(int, uint32, int, timing.PicoSeconds) timing.PicoSeconds { return 0 }

// OnRFM implements Scheme.
//
//mithril:hotpath
func (NoProtection) OnRFM(int, timing.PicoSeconds) []uint32 { return nil }

// SkipRFM implements Scheme.
//
//mithril:hotpath
func (NoProtection) SkipRFM(int) bool { return false }
