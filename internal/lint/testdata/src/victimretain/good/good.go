// Package good copies victim slices into owned storage.
package good

type scheme struct{}

func (scheme) OnActivate(bank int, row uint32) []uint32 { return nil }

type holder struct{ victims []uint32 }

// capture copies the victims into owned storage — the sanctioned pattern.
func (h *holder) capture(s scheme) {
	v := s.OnActivate(0, 1) // a local binding inside the call window is fine
	h.victims = append(h.victims[:0], v...)
}
