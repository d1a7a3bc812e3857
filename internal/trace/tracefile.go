package trace

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Record is one parsed line of a trace file: the access stream's
// persistent form. Gap carries the cycle delta (non-memory instructions
// executed before the access), mirroring Access.Gap.
type Record struct {
	Gap   int
	Write bool
	Addr  uint64
}

// MaxTraceAddr bounds trace-file addresses: one byte above the largest
// DRAM the simulator can be configured with (1 TB). The simulated address
// space wraps modulo its actual size, so a larger value in a trace file is
// corruption (or a truncated hex literal), not a reachable location, and
// the parser rejects it.
const MaxTraceAddr = 1 << 40

// gzipMagic is the two-byte header every gzip stream starts with; the
// reader sniffs it to pick plain-text vs gzip decoding automatically.
var gzipMagic = []byte{0x1f, 0x8b}

// ParseTrace reads a whole access trace from r in the text format
// documented in the README ("Trace-file format"):
//
//	trace  = { line } ;
//	line   = ( record | comment | "" ) "\n" ;
//	record = gap ws op ws addr ;
//	gap    = decimal integer >= 0 ;
//	op     = "R" | "W" ;
//	addr   = "0x" hex integer < MaxTraceAddr ;
//
// Comments start with "#"; blank lines are skipped. A gzip stream
// (detected by its magic bytes) is decompressed transparently. Parsing is
// strict: any malformed line fails with its line number, and a trace with
// no records at all is an error (a replay generator must be endless, and
// an empty workload is always a mistake).
func ParseTrace(r io.Reader) ([]Record, error) {
	br := bufio.NewReader(r)
	if head, err := br.Peek(2); err == nil && head[0] == gzipMagic[0] && head[1] == gzipMagic[1] {
		gz, err := gzip.NewReader(br)
		if err != nil {
			return nil, fmt.Errorf("trace: gzip: %w", err)
		}
		defer gz.Close()
		return parseTraceText(gz)
	}
	return parseTraceText(br)
}

func parseTraceText(r io.Reader) ([]Record, error) {
	var recs []Record
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		rec, ok, err := parseTraceLine(sc.Text())
		if err != nil {
			return nil, fmt.Errorf("line %d: %w", lineNo, err)
		}
		if ok {
			recs = append(recs, rec)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	if len(recs) == 0 {
		return nil, fmt.Errorf("trace: no records (replay needs at least one access)")
	}
	return recs, nil
}

// parseTraceLine parses one line; ok is false for blank/comment lines.
func parseTraceLine(line string) (Record, bool, error) {
	if i := strings.IndexByte(line, '#'); i >= 0 {
		line = line[:i]
	}
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return Record{}, false, nil
	}
	if len(fields) != 3 {
		return Record{}, false, fmt.Errorf("want 3 fields <gap> <R|W> <0xaddr>, got %d", len(fields))
	}
	gap, err := strconv.Atoi(fields[0])
	if err != nil || gap < 0 {
		return Record{}, false, fmt.Errorf("bad gap %q (want decimal integer >= 0)", fields[0])
	}
	var write bool
	switch fields[1] {
	case "R":
		write = false
	case "W":
		write = true
	default:
		return Record{}, false, fmt.Errorf("bad op %q (want R or W)", fields[1])
	}
	hex, ok := strings.CutPrefix(fields[2], "0x")
	if !ok {
		return Record{}, false, fmt.Errorf("bad address %q (want 0x-prefixed hex)", fields[2])
	}
	addr, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return Record{}, false, fmt.Errorf("bad address %q (want 0x-prefixed hex)", fields[2])
	}
	if addr >= MaxTraceAddr {
		return Record{}, false, fmt.Errorf("address %#x out of range (must be < %#x)", addr, uint64(MaxTraceAddr))
	}
	return Record{Gap: gap, Write: write, Addr: addr}, true, nil
}

// ParseTraceFile reads one trace file (plain text or gzip) from disk.
func ParseTraceFile(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("trace: %w", err)
	}
	defer f.Close()
	recs, err := ParseTrace(f)
	if err != nil {
		return nil, fmt.Errorf("trace %s: %w", path, err)
	}
	return recs, nil
}

// Replay is a Generator that cycles through a recorded access stream,
// offsetting every address by a fixed base (FileWorkload picks per-core
// bases that keep replays of the same trace disjoint, like the
// multi-programmed mixes).
type Replay struct {
	name   string
	recs   []Record
	offset uint64
	pos    int
}

var _ Generator = (*Replay)(nil)

// NewReplay builds a replay generator over recs. It panics on an empty
// record slice — ParseTrace never returns one, and a Generator must be
// endless.
func NewReplay(name string, recs []Record, offset uint64) *Replay {
	if len(recs) == 0 {
		panic("trace: NewReplay with no records")
	}
	return &Replay{name: name, recs: recs, offset: offset}
}

// Name implements Generator.
func (r *Replay) Name() string { return r.name }

// Next implements Generator, wrapping to the first record after the last.
func (r *Replay) Next() Access {
	rec := r.recs[r.pos]
	r.pos++
	if r.pos == len(r.recs) {
		r.pos = 0
	}
	return Access{Gap: rec.Gap, Addr: r.offset + rec.Addr, Write: rec.Write}
}

// FileWorkload builds the "trace:<path>" workload: the file is parsed once
// (strictly), and every core replays the same recorded stream with its
// addresses offset by a per-core stride — the trace's address footprint
// rounded up to a power of two, at least the 256 MB core region — so the
// replays stay disjoint no matter how large the recorded footprint is.
// The workload name is the full "trace:<path>" spelling, so spec rows,
// baseline-cache keys, and golden lines all carry the name the spec used.
func FileWorkload(path string, cores int) (Workload, error) {
	recs, err := ParseTraceFile(path)
	if err != nil {
		return Workload{}, err
	}
	if cores < 1 {
		cores = 1
	}
	stride := replayStride(recs)
	return Workload{
		Name: TracePrefix + path,
		Fresh: func() []Generator {
			gens := make([]Generator, cores)
			for i := 0; i < cores; i++ {
				gens[i] = NewReplay(fmt.Sprintf("replay-%d", i), recs, uint64(i)*stride)
			}
			return gens
		},
	}, nil
}

// replayStride returns the per-core address offset for a replayed trace:
// the smallest power of two that both covers the trace's highest address
// and is at least the standard 256 MB core region.
func replayStride(recs []Record) uint64 {
	stride := uint64(1) << 28 // coreRegion granularity
	for _, r := range recs {
		for r.Addr >= stride {
			stride <<= 1
		}
	}
	return stride
}
