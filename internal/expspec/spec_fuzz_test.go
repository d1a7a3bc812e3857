package expspec

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// FuzzParseSpec drives the spec parser with arbitrary byte streams,
// mirroring trace's FuzzParseTrace. Three properties must hold on every
// input: Parse never panics; every accepted spec survives a json.Marshal
// round trip — the re-parsed spec validates again and marshals to
// identical bytes (the canonical-form property the CLI's spec-echoing
// endpoints rely on); and an accepted spec's execution constructs and
// prepares its rows at the spec's own scale (NewExecution, then Local)
// without panicking — anything wrong must surface as an error there, not
// inside the sweep. The sequence Local returns is not ranged, so no row
// simulates.
func FuzzParseSpec(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("..", "..", "specs", "*.json"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no shipped specs found: %v", err)
	}
	sort.Strings(files)
	for _, name := range files {
		data, readErr := os.ReadFile(name)
		if readErr != nil {
			f.Fatalf("reading seed %s: %v", name, readErr)
		}
		f.Add(data)
	}
	f.Add([]byte(""))
	f.Add([]byte("{}"))
	f.Add([]byte("null"))
	f.Add([]byte(`{"name":"x","kind":"comparison"}`))                                                                    // no scale
	f.Add([]byte(`{"name":"x","kind":"nosuch","scale":{"preset":"quick"}}`))                                             // bad kind
	f.Add([]byte(`{"name":"x","kind":"comparison","unknown_field":1}`))                                                  // unknown field
	f.Add([]byte(`{"name":"x","kind":"comparison","scale":{"preset":"quick"},"axes":{"seeds":[18446744073709551615]}}`)) // max uint64 seed
	f.Add([]byte(`{"name":"","kind":"comparison","scale":{"preset":"quick"}}`))                                          // empty name
	f.Add([]byte(`{"name":"x","kind":"comparison","scale":{"preset":"quick"},"axes":{"schemes":["none","none"]}}`))      // duplicate axis value
	f.Add([]byte(`{"name":"x","kind":"comparison","scale":{"preset":"quick","seed":-1}}`))                               // negative seed

	f.Fuzz(func(t *testing.T, data []byte) {
		sp, err := Parse(data)
		if err != nil {
			return // rejected input: any error is fine, panics are not
		}
		out, err := json.Marshal(sp)
		if err != nil {
			t.Fatalf("marshalling accepted spec: %v", err)
		}
		again, err := Parse(out)
		if err != nil {
			t.Fatalf("accepted spec failed to re-validate after marshal round trip: %v\n%s", err, out)
		}
		out2, err := json.Marshal(again)
		if err != nil {
			t.Fatalf("re-marshalling round-tripped spec: %v", err)
		}
		if !bytes.Equal(out, out2) {
			t.Fatalf("marshal round trip is not canonical:\nfirst:  %s\nsecond: %s", out, out2)
		}
		sc, err := sp.Scale.Resolve()
		if err != nil {
			t.Fatalf("accepted spec has an unresolvable scale: %v", err)
		}
		x, err := sp.NewExecution(sc, nil, nil)
		if err != nil {
			return
		}
		rows := make([]int, len(x.Cells()))
		for i := range rows {
			rows[i] = i
		}
		_, _ = x.Local(context.Background(), rows)
	})
}
