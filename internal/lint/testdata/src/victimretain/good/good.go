// Package good copies victim slices into owned storage.
package good

type scheme struct{}

func (scheme) OnActivate(bank int, row uint32) []uint32 { return nil }
func (scheme) OnRFM(bank int) []uint32                  { return nil }

type holder struct{ victims []uint32 }

// capture copies the victims into owned storage — the sanctioned pattern.
func (h *holder) capture(s scheme) {
	v := s.OnActivate(0, 1) // a local binding inside the call window is fine
	h.victims = append(h.victims[:0], v...)
}

// firstLane hands on lane 0's victims the way a scheme wrapping other
// schemes does: held in a local, then returned to the caller, who is
// bound by the same contract.
func firstLane(lanes []scheme) []uint32 {
	var out []uint32
	for i, l := range lanes {
		v := l.OnRFM(0)
		if i == 0 {
			out = v
		}
	}
	return out
}

// refresh passes a local's victims to a call that consumes them at once.
func refresh(s scheme, apply func([]uint32)) {
	victims := s.OnActivate(0, 1)
	apply(victims)
}
