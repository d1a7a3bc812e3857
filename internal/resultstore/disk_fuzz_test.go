package resultstore

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// FuzzOpenSegment writes arbitrary bytes after one valid record line in a
// segment file — finalized, or left .open by a crash — and reloads the
// directory. Open must neither panic nor fail on any content (damage is
// counted, never fatal), and the valid line written before the fuzzed
// bytes must still be served.
func FuzzOpenSegment(f *testing.F) {
	good := testRecord(1, "v1")
	line, err := marshalLine(good)
	if err != nil {
		f.Fatal(err)
	}
	other, err := marshalLine(testRecord(2, "v1"))
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range [][]byte{
		nil,
		other,
		other[:len(other)/2], // torn tail
		bytes.Replace(other, []byte("v1"), []byte("v2"), 1), // CRC mismatch
		[]byte("\x00\xff\n{\n}\n"),
		[]byte(`{"key":"zz","stamp":"v1","payload":{},"crc":0}`),
		bytes.Repeat([]byte("x"), 70*1024),
	} {
		f.Add(seed, false)
		f.Add(seed, true)
	}
	f.Fuzz(func(t *testing.T, data []byte, open bool) {
		dir := t.TempDir()
		name := segName(1)
		if open {
			name += openSuffix
		}
		seg := append(append([]byte(nil), line...), data...)
		if err := os.WriteFile(filepath.Join(dir, name), seg, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := Open(dir)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer d.Close()
		if strings.Contains(string(data), good.Key.String()) {
			return // the fuzzed bytes may carry a later record for the key
		}
		rec, ok := d.Get(good.Key)
		if !ok || !sameRecord(rec, good) {
			t.Fatalf("valid line before the fuzzed bytes not served: got %+v, %v", rec, ok)
		}
	})
}
