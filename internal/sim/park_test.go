package sim

import (
	"reflect"
	"testing"

	"mithril/internal/timing"
)

func TestServedWakesOnlyCoresParkedOnItsChannel(t *testing.T) {
	const chA, chB = 1, 0
	cal := newCalendar(5)
	// Cores 0 and 3 wait on channel A, core 1 on channel B; cores 2 and 4
	// are not parked.
	cal.park(0, chA, 10)
	cal.park(1, chB, 20)
	cal.park(3, chA, 25)
	cal.park(3, chA, 30) // a completion woke core 3, and it parked again
	cal.cores[2].wake, cal.cores[4].wake = 500, 600
	if cal.parked != 3 {
		t.Fatalf("parked = %d, want 3", cal.parked)
	}

	cal.served(chA)
	want := []coreCal{
		{wake: 0, ready: 10, parkedOn: -1},
		{wake: timing.Never, ready: 20, parkedOn: chB},
		{wake: 500, parkedOn: -1},
		{wake: 0, ready: 30, parkedOn: -1},
		{wake: 600, parkedOn: -1},
	}
	if !reflect.DeepEqual(cal.cores, want) || cal.parked != 1 {
		t.Fatalf("after a serve on channel %d: parked %d, cores %+v; want parked 1, cores %+v", chA, cal.parked, cal.cores, want)
	}
}
