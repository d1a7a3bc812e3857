package dram

import (
	"mithril/internal/freelist"
	"mithril/internal/timing"
)

// A Device's RowHammer checkers size their row tables by the rows a run
// touches, so a fresh device is small, but a simulation still builds bank
// and checker objects for every bank. The pool below recycles devices
// between runs: reset restores NewDevice semantics in O(banks) because the
// checkers empty their tables lazily via epoch stamps, and a recycled
// device keeps the table capacity earlier runs grew.
//
// Devices are interchangeable within one geometry (timing.Params): FlipTH
// and the disturbance weights are set on every acquisition. Concurrency-
// safe: parallel sweep workers each acquire an exclusive device.
var devices freelist.List[timing.Params, *Device]

// AcquireDevice returns a device for the given configuration that is
// indistinguishable from NewDevice's result, recycling a previously
// released one of the same geometry when available. Release with
// ReleaseDevice once the simulation no longer references the device or
// anything it owns.
func AcquireDevice(p timing.Params, flipTH int, weights []float64) *Device {
	if d, ok := devices.Get(p); ok {
		d.reset(flipTH, weights)
		return d
	}
	d := NewDevice(p, flipTH, weights)
	d.pooled = true
	return d
}

// ReleaseDevice returns a device obtained from AcquireDevice to its pool.
// The device may be in any state — mid-run cancellation included — since
// the next acquisition resets it. Devices built directly with NewDevice
// are ignored, and a released device must not be used again.
func ReleaseDevice(d *Device) {
	if d == nil || !d.pooled {
		return
	}
	devices.Put(d.p, d)
}
