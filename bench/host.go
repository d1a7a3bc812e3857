package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"sync"
	"time"
)

// The benchmark runs on shared hosts whose speed drifts with other
// tenants' load: a fixed amount of simulator work takes up to ±20% longer
// from one minute to the next, which is wider than any useful regression
// bound. The drift comes from contention for caches and memory, so it
// slows CPU time as much as wall time.
//
// A reference process tracks that drift. Between units the benchmark asks
// it to run a fixed allocation-heavy kernel, the kind of work whose speed
// follows the simulator's (over 15 s windows the two correlate at 0.96).
// Every host time a run reports is then scaled by the host factor,
// refNominal / median(kernel time): it is the time the run would have
// taken on a host where the kernel takes refNominal. The reference is a separate process
// so that nothing in the program under test — its heap, its pools, its GC
// pacing — changes the kernel's time.

// refEnv, set in a child's environment, makes the benchmark binary (or the
// test binary) serve kernel timings instead of benchmarking.
const refEnv = "MITHRIL_BENCH_REFERENCE"

const (
	// refNominal is the kernel's median time on the 2-vCPU VM the bounds
	// were calibrated on.
	refNominal = 80 * time.Millisecond
	// refEvery is the least time between two kernel runs in a timed phase.
	refEvery = time.Second
	// refNodes is the number of nodes each of the kernel's two goroutines
	// allocates.
	refNodes = 300_000
)

// hostRef is the running reference process.
type hostRef struct {
	cmd     *exec.Cmd
	in      io.WriteCloser
	out     *bufio.Scanner
	samples []float64 // kernel times, ms
	last    time.Time
}

// startHostRef starts the reference process: this binary again, with
// refEnv set.
func startHostRef(ctx context.Context) (*hostRef, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, self)
	cmd.Env = append(os.Environ(), refEnv+"=1")
	cmd.Stderr = os.Stderr
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("reference process: %w", err)
	}
	return &hostRef{cmd: cmd, in: in, out: bufio.NewScanner(out)}, nil
}

// sample runs the kernel once in the reference process and records its
// time.
func (h *hostRef) sample() error {
	if _, err := io.WriteString(h.in, "run\n"); err != nil {
		return fmt.Errorf("reference process: %w", err)
	}
	if !h.out.Scan() {
		return fmt.Errorf("reference process: no reply: %v", h.out.Err())
	}
	ns, err := strconv.ParseInt(h.out.Text(), 10, 64)
	if err != nil {
		return fmt.Errorf("reference process: %w", err)
	}
	h.samples = append(h.samples, ms(time.Duration(ns)))
	h.last = time.Now()
	return nil
}

// due reports whether refEvery has passed since the last sample.
func (h *hostRef) due() bool { return time.Since(h.last) >= refEvery }

// factor is refNominal over the median kernel time: above 1 when the host
// ran faster than nominal.
func (h *hostRef) factor() float64 { return ms(refNominal) / median(h.samples) }

// close ends the reference process and waits for it.
func (h *hostRef) close() error {
	h.in.Close()
	return h.cmd.Wait()
}

// referenceMain is the reference process's main: it serves kernel timings
// on standard input and output until its input closes, and returns the
// exit code.
func referenceMain() int {
	if err := serveReference(os.Stdin, os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "bench: reference process: %v\n", err)
		return 1
	}
	return 0
}

// serveReference runs the kernel for every line on in and writes its time
// in nanoseconds to out.
func serveReference(in io.Reader, out io.Writer) error {
	lines := bufio.NewScanner(in)
	for lines.Scan() {
		start := time.Now()
		refKernel()
		if _, err := fmt.Fprintln(out, time.Since(start).Nanoseconds()); err != nil {
			return err
		}
	}
	return lines.Err()
}

type refNode struct {
	next *refNode
	v    [6]uint64
}

// refSink keeps the kernel's results reachable so no work is optimised
// away.
var refSink [2]*refNode

// refKernel allocates small pointer-linked nodes on two goroutines (the
// benchmark's two cores), keeps one in seven alive in a list and indexes
// the latest ones in a map, so its time goes to allocation, map writes and
// garbage collection, as the simulator's does.
func refKernel() {
	var wg sync.WaitGroup
	for g := range refSink {
		wg.Add(1)
		go func() {
			defer wg.Done()
			index := map[uint64]*refNode{}
			var kept *refNode
			for k := 0; k < refNodes; k++ {
				n := &refNode{v: [6]uint64{uint64(k)}}
				if k%7 == 0 {
					n.next, kept = kept, n
				}
				index[uint64(k%4096)] = n
			}
			refSink[g] = kept
		}()
	}
	wg.Wait()
}
