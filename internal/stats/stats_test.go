package stats

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"math"
	"strings"
	"testing"
)

func TestGeomean(t *testing.T) {
	if got := Geomean([]float64{4, 9}); math.Abs(got-6) > 1e-12 {
		t.Errorf("Geomean(4,9) = %v, want 6", got)
	}
	if got := Geomean([]float64{5}); got != 5 {
		t.Errorf("Geomean(5) = %v", got)
	}
	if got := Geomean(nil); got != 0 {
		t.Errorf("Geomean(nil) = %v", got)
	}
	defer func() {
		if recover() == nil {
			t.Error("Geomean of non-positive should panic")
		}
	}()
	Geomean([]float64{1, 0})
}

func TestTableRendering(t *testing.T) {
	tb := NewTable("name", "value")
	tb.Add("alpha", "1")
	tb.Add("a-much-longer-name", "22")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d, want header+separator+2 rows", len(lines))
	}
	// All non-final columns align: every line's last column starts at the
	// same offset (first column width + two-space separator), preceded by
	// exactly the separator.
	const lastColStart = len("a-much-longer-name") + 2
	for i, l := range lines {
		if len(l) <= lastColStart || l[lastColStart] == ' ' || l[lastColStart-2:lastColStart] != "  " {
			t.Errorf("line %d: last column does not start at offset %d: %q", i, lastColStart, l)
		}
	}
	if !strings.Contains(out, "a-much-longer-name") {
		t.Error("row content missing")
	}
	// Short rows render with empty cells.
	tb.Add("only-name")
	if !strings.Contains(tb.String(), "only-name") {
		t.Error("short row missing")
	}
}

func TestTableNoTrailingWhitespace(t *testing.T) {
	tb := NewTable("name", "value", "wide-header")
	tb.Add("alpha", "1", "x")
	tb.Add("beta", "22") // short row: empty final cell
	tb.Add("a-much-longer-name", "3", "yy")
	for i, l := range strings.Split(strings.TrimRight(tb.String(), "\n"), "\n") {
		if strings.TrimRight(l, " \t") != l {
			t.Errorf("line %d has trailing whitespace: %q", i, l)
		}
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	err := WriteCSV(&buf, []string{"a", "b"}, [][]string{
		{"1", "plain"},
		{"2", `needs "quoting", really`},
	})
	if err != nil {
		t.Fatal(err)
	}
	records, err := csv.NewReader(&buf).ReadAll()
	if err != nil {
		t.Fatalf("output does not parse back: %v", err)
	}
	if len(records) != 3 || records[0][0] != "a" || records[2][1] != `needs "quoting", really` {
		t.Errorf("round-trip = %v", records)
	}
}

func TestWriteJSON(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteJSON(&buf, map[string]any{"rows": []int{1, 2}}); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.HasSuffix(out, "\n") {
		t.Error("missing trailing newline")
	}
	var back map[string][]int
	if err := json.Unmarshal(buf.Bytes(), &back); err != nil {
		t.Fatalf("output does not parse back: %v", err)
	}
	if len(back["rows"]) != 2 {
		t.Errorf("round-trip = %v", back)
	}
}
