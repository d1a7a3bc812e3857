package trace

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

var sampleRecords = []Record{
	{Gap: 12, Addr: 0x1000},
	{Gap: 0, Write: true, Addr: 0x1040},
	{Gap: 3, Addr: 0x20000},
	{Gap: 400, Addr: 0x0},
	{Gap: 7, Write: true, Addr: 0xfffc0},
}

func TestParseTraceFixture(t *testing.T) {
	recs, err := ParseTraceFile("testdata/sample.trace")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, sampleRecords) {
		t.Errorf("records = %+v, want %+v", recs, sampleRecords)
	}
}

// The canonical fixture pins WriteTrace's exact output format, and the
// write→parse round trip must reproduce the records byte-for-byte.
func TestTraceRoundTripFixture(t *testing.T) {
	recs, err := ParseTraceFile("testdata/sample.trace")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, recs); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile("testdata/sample.canonical.trace")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("WriteTrace output:\n%swant testdata/sample.canonical.trace:\n%s", buf.Bytes(), want)
	}
	again, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(again, recs) {
		t.Errorf("round trip diverged: %+v vs %+v", again, recs)
	}
}

// The reader must pick gzip vs plain text by content, not file name.
func TestParseTraceGzipDetection(t *testing.T) {
	plain, err := os.ReadFile("testdata/sample.trace")
	if err != nil {
		t.Fatal(err)
	}
	var gzBuf bytes.Buffer
	gw := gzip.NewWriter(&gzBuf)
	if _, err := gw.Write(plain); err != nil {
		t.Fatal(err)
	}
	if err := gw.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sample.trace.gz")
	if err := os.WriteFile(path, gzBuf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	recs, err := ParseTraceFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, sampleRecords) {
		t.Errorf("gzip records = %+v, want %+v", recs, sampleRecords)
	}
}

func TestParseTraceMalformedLines(t *testing.T) {
	cases := []struct {
		name, input, want string
	}{
		{"too few fields", "12 R\n", "want 3 fields"},
		{"too many fields", "12 R 0x0 extra\n", "want 3 fields"},
		{"bad gap", "x R 0x0\n", "bad gap"},
		{"negative gap", "-1 R 0x0\n", "bad gap"},
		{"bad op", "1 X 0x0\n", "bad op"},
		{"lowercase op", "1 r 0x0\n", "bad op"},
		{"missing 0x prefix", "1 R 1000\n", "bad address"},
		{"non-hex address", "1 R 0xzz\n", "bad address"},
		{"out-of-range address", "1 R 0x10000000000\n", "out of range"},
		{"error names its line", "1 R 0x0\nbogus\n", "line 2"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := ParseTrace(strings.NewReader(c.input))
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("ParseTrace(%q) = %v, want error containing %q", c.input, err, c.want)
			}
		})
	}
}

// An empty trace (no records at all, even if full of comments) is an
// error: a replay generator must be endless.
func TestParseTraceEmpty(t *testing.T) {
	for _, input := range []string{"", "# only a comment\n\n"} {
		if _, err := ParseTrace(strings.NewReader(input)); err == nil ||
			!strings.Contains(err.Error(), "no records") {
			t.Errorf("ParseTrace(%q) = %v, want no-records error", input, err)
		}
	}
}

// The replay generator wraps around and offsets addresses per core.
func TestReplayWrapsAndOffsets(t *testing.T) {
	r := NewReplay("replay", sampleRecords, 1<<28)
	for round := 0; round < 2; round++ {
		for i, want := range sampleRecords {
			got := r.Next()
			if got.Addr != want.Addr+1<<28 || got.Write != want.Write || got.Gap != want.Gap {
				t.Fatalf("round %d access %d = %+v, want offset %+v", round, i, got, want)
			}
		}
	}
}

func TestFileWorkload(t *testing.T) {
	w, err := FileWorkload("testdata/sample.trace", 3)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "trace:testdata/sample.trace" {
		t.Errorf("Name = %q, want the full trace:<path> spelling", w.Name)
	}
	gens := w.Fresh()
	if len(gens) != 3 {
		t.Fatalf("Fresh built %d generators, want 3", len(gens))
	}
	// Per-core disjoint regions: core i replays at offset i<<28.
	for i, g := range gens {
		if a := g.Next(); a.Addr != sampleRecords[0].Addr+uint64(i)<<28 {
			t.Errorf("core %d first access at %#x, want offset %#x", i, a.Addr, uint64(i)<<28)
		}
	}
	// Fresh must rebuild identical state: a second set replays from the top.
	if a := w.Fresh()[0].Next(); a.Addr != sampleRecords[0].Addr {
		t.Errorf("second Fresh started at %#x, want %#x", a.Addr, sampleRecords[0].Addr)
	}
	if _, err := FileWorkload("testdata/no-such-file.trace", 1); err == nil {
		t.Error("missing file: want error")
	}
}

// Traces larger than the standard 256 MB core region must still replay
// disjointly: the per-core stride grows to the footprint's next power of
// two.
func TestFileWorkloadLargeTraceStaysDisjoint(t *testing.T) {
	path := filepath.Join(t.TempDir(), "big.trace")
	// Highest address ~1 GB: the stride must become 2 GB, not 256 MB.
	if err := os.WriteFile(path, []byte("1 R 0x0\n1 R 0x3f7a1700\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := FileWorkload(path, 3)
	if err != nil {
		t.Fatal(err)
	}
	gens := w.Fresh()
	const stride = uint64(1) << 30
	for i, g := range gens {
		g.Next() // skip the 0x0 record
		if a := g.Next(); a.Addr != 0x3f7a1700+uint64(i)*stride {
			t.Errorf("core %d peak address %#x, want stride %#x per core", i, a.Addr, stride)
		}
	}
}

func TestBuildWorkloadTraceForm(t *testing.T) {
	w, err := BuildWorkload("trace:testdata/sample.trace", 2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "trace:testdata/sample.trace" || len(w.Fresh()) != 2 {
		t.Errorf("built %+v", w)
	}
	if _, err := BuildWorkload("trace:", 1, 1); err == nil {
		t.Error("trace: with empty path must fail")
	}
	if _, err := BuildWorkload("spec2017", 1, 1); !errors.Is(err, ErrUnknownWorkload) {
		t.Errorf("unknown name: err = %v, want ErrUnknownWorkload", err)
	}
}

// WriteTrace emits recs in the canonical trace-file text form: parsing
// WriteTrace's output yields recs back exactly (the round-trip a testdata
// fixture pins). The tests build trace files with it.
func WriteTrace(w io.Writer, recs []Record) error {
	bw := bufio.NewWriter(w)
	for _, r := range recs {
		op := "R"
		if r.Write {
			op = "W"
		}
		if _, err := fmt.Fprintf(bw, "%d %s %#x\n", r.Gap, op, r.Addr); err != nil {
			return err
		}
	}
	return bw.Flush()
}
