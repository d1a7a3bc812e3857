package dram

import (
	"runtime"
	"testing"

	"mithril/internal/rh"
	"mithril/internal/timing"
)

// exercise drives a deterministic access pattern — spread accesses, REFs,
// and a hammer on bank 0 long enough to flip at low FlipTH — and returns
// the device's observable summaries.
func exercise(d *Device) (BankStats, string, rh.Report) {
	now := timing.PicoSeconds(0)
	for i := 0; i < 200; i++ {
		g := i % d.NumBanks()
		_, ready := d.Access(g, (i*7)%64, i%3 == 0, now)
		if ready > now {
			now = ready
		}
		if i%50 == 49 {
			now = d.IssueREF(0, now)
		}
	}
	for i := 0; i < 120; i++ {
		now = d.ActivateOnly(0, 10+2*(i%2), now)
	}
	return d.TotalStats(), d.SafetyReport().String(), d.checkers[0].Report()
}

// TestAcquireDeviceIndistinguishableFromFresh pins the pool contract: a
// device recycled through Release/Acquire — dirty state and all, and
// under any FlipTH and disturbance weights — must behave exactly like one
// built by NewDevice.
func TestAcquireDeviceIndistinguishableFromFresh(t *testing.T) {
	p := smallParams()
	for _, tc := range []struct {
		name    string
		flipTH  int
		weights []float64
	}{
		{"same", 100, nil},
		{"other-flipth", 50, nil},
		{"other-weights", 100, []float64{1, 0.5, 0.25}},
		{"long-weights", 40, []float64{1, 0.5, 0.25, 0.125, 0.0625}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dirty := AcquireDevice(p, 100, nil)
			exercise(dirty) // leave bank timing, checker, and stats state behind
			ReleaseDevice(dirty)

			recycled := AcquireDevice(p, tc.flipTH, tc.weights)
			defer ReleaseDevice(recycled)
			if recycled != dirty {
				t.Fatal("the released device was not recycled")
			}
			fresh := NewDevice(p, tc.flipTH, tc.weights)

			if rs, fs := recycled.TotalStats(), fresh.TotalStats(); rs != fs {
				t.Fatalf("recycled device starts with stats %+v, fresh %+v", rs, fs)
			}
			rStats, rSafety, rBank0 := exercise(recycled)
			fStats, fSafety, fBank0 := exercise(fresh)
			if rStats != fStats {
				t.Fatalf("recycled device diverged:\nrecycled: %+v\nfresh:    %+v", rStats, fStats)
			}
			if rSafety != fSafety {
				t.Fatalf("safety reports diverged:\nrecycled: %s\nfresh:    %s", rSafety, fSafety)
			}
			if rBank0 != fBank0 {
				t.Fatalf("bank 0 safety reports diverged:\nrecycled: %+v\nfresh:    %+v", rBank0, fBank0)
			}
		})
	}
}

// TestReleasedDeviceSurvivesGC pins the free-list property the pool exists
// for: a released device is not reclaimed by the garbage collector, and
// the next acquisition of its geometry gets it back, reset.
func TestReleasedDeviceSurvivesGC(t *testing.T) {
	p := smallParams()
	p.Rows = 512 // a geometry no other test acquires
	d := AcquireDevice(p, 100, nil)
	exercise(d)
	ReleaseDevice(d)
	runtime.GC()
	runtime.GC()
	got := AcquireDevice(p, 100, nil)
	defer ReleaseDevice(got)
	if got != d {
		t.Fatal("released device did not survive two collections")
	}
	if st := got.TotalStats(); st != (BankStats{}) {
		t.Fatalf("recycled device not reset: %+v", st)
	}
	if r := got.SafetyReport(); r.ACTs != 0 || r.Refreshes != 0 || r.Flips != 0 {
		t.Fatalf("recycled checkers not reset: %v", r)
	}
}
