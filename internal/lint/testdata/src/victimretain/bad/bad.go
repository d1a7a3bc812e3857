// Package bad retains scheme-owned victim slices.
package bad

type scheme struct{}

func (scheme) OnActivate(bank int, row uint32) []uint32 { return nil }
func (scheme) OnRFM(bank int) []uint32                  { return nil }

type holder struct {
	victims []uint32
}

func (h *holder) capture(s scheme) {
	h.victims = s.OnActivate(0, 1) // want "retains a scheme-owned victim slice"
}

func captureLit(s scheme) holder {
	return holder{victims: s.OnRFM(0)} // want "composite literal retains a scheme-owned victim slice"
}

var stored = scheme{}.OnRFM(0) // want "package variable retains a scheme-owned victim slice"
