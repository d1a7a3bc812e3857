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

// captureLocal stores the result through the local that holds it.
func (h *holder) captureLocal(s scheme) {
	v := s.OnRFM(0)
	w := v
	h.victims = w // want "retains a scheme-owned victim slice"
}

// job is a queued refresh, like the controller's pending-ARR entries.
type job struct {
	bank    int
	victims []uint32
}

// enqueue queues a local's victims without copying them.
func enqueue(s scheme, jobs []job) []job {
	var victims = s.OnActivate(0, 1)
	return append(jobs, job{bank: 0, victims: victims}) // want "composite literal retains a scheme-owned victim slice"
}
