// Package testutil holds test-only helpers shared across packages. Its
// centerpiece is the goroutine-leak checker — the dynamic twin of the
// goleak static analyzer: the analyzer proves exit paths exist, the
// checker proves they were actually taken.
package testutil

import (
	"runtime"
	"strconv"
	"strings"
	"testing"
	"time"
)

// leakRetryWindow bounds how long the checker waits for goroutines that
// are exiting but have not finished yet: teardown is asynchronous (a
// cancelled worker still has to observe ctx and return), so the diff is
// retried until the window closes.
const leakRetryWindow = 5 * time.Second

// CheckGoroutines snapshots the live goroutines and returns the verify
// function to defer:
//
//	defer testutil.CheckGoroutines(t)()
//
// At test end it re-stacks the process, diffs against the snapshot, and
// fails on any goroutine created during the test that is still alive
// after the retry window and runs module code (its stack mentions
// "mithril") — the targeted form that ignores runtime, testing, and
// net/http service goroutines a test has no control over.
//
//mithril:allow testonly the runtime leak checker the module's tests (and bench/'s) defer; it lives outside _test.go files so every package can import it
func CheckGoroutines(t testing.TB) func() {
	t.Helper()
	before := goroutineStacks()
	return func() {
		t.Helper()
		deadline := time.Now().Add(leakRetryWindow)
		for {
			leaked := leakedSince(before)
			if len(leaked) == 0 {
				return
			}
			if time.Now().After(deadline) {
				for _, stack := range leaked {
					t.Errorf("leaked goroutine still running after %v:\n%s", leakRetryWindow, stack)
				}
				return
			}
			time.Sleep(10 * time.Millisecond)
		}
	}
}

// leakedSince returns the stacks of goroutines absent from the snapshot
// that run module code.
func leakedSince(before map[int64]string) []string {
	var leaked []string
	for id, stack := range goroutineStacks() {
		if _, existed := before[id]; existed {
			continue
		}
		if !strings.Contains(stack, "mithril") {
			continue
		}
		leaked = append(leaked, stack)
	}
	return leaked
}

// goroutineStacks captures every goroutine's stack, keyed by goroutine ID.
// IDs are monotonically assigned by the runtime and never reused, so a
// post-test ID absent from the pre-test snapshot is a goroutine the test
// created.
func goroutineStacks() map[int64]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	stacks := map[int64]string{}
	for _, g := range strings.Split(string(buf), "\n\n") {
		if id, ok := parseGoroutineID(g); ok {
			stacks[id] = g
		}
	}
	return stacks
}

// parseGoroutineID extracts N from a "goroutine N [state]:" header.
func parseGoroutineID(stack string) (int64, bool) {
	rest, ok := strings.CutPrefix(stack, "goroutine ")
	if !ok {
		return 0, false
	}
	end := strings.IndexByte(rest, ' ')
	if end < 0 {
		return 0, false
	}
	id, err := strconv.ParseInt(rest[:end], 10, 64)
	if err != nil {
		return 0, false
	}
	return id, true
}
