package resultstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func testRecord(i int, stamp string) Record {
	return Record{
		Key:     HashComponents(map[string]string{"i": fmt.Sprint(i)}),
		Stamp:   stamp,
		Payload: json.RawMessage(fmt.Sprintf(`{"v":%d}`, i)),
	}
}

func TestHashComponentsOrderIndependent(t *testing.T) {
	a := HashComponents(map[string]string{"scheme": "mithril", "seed": "1", "flipth": "6250"})
	b := HashComponents(map[string]string{"flipth": "6250", "seed": "1", "scheme": "mithril"})
	if a != b {
		t.Fatalf("component order changed the key: %s vs %s", a, b)
	}
	c := HashComponents(map[string]string{"scheme": "mithril", "seed": "2", "flipth": "6250"})
	if a == c {
		t.Fatal("changing a component value kept the key")
	}
	// The name=value framing keeps shifted boundaries distinct.
	d := HashComponents(map[string]string{"ab": "c"})
	e := HashComponents(map[string]string{"a": "bc"})
	if d == e {
		t.Fatal("(ab,c) and (a,bc) collide")
	}
}

func TestKeyRoundTrip(t *testing.T) {
	k := HashComponents(map[string]string{"x": "y"})
	back, err := ParseKey(k.String())
	if err != nil || back != k {
		t.Fatalf("ParseKey(%s) = %v, %v", k, back, err)
	}
	if _, err := ParseKey("zz"); err == nil {
		t.Fatal("ParseKey accepted garbage")
	}
	if _, err := ParseKey("abcd"); err == nil {
		t.Fatal("ParseKey accepted a short key")
	}
}

func TestFingerprintAndStamp(t *testing.T) {
	a := Fingerprint([]string{"b", "a"})
	if a != Fingerprint([]string{"a", "b"}) {
		t.Fatal("fingerprint depends on name order")
	}
	if a == Fingerprint([]string{"a", "b", "c"}) {
		t.Fatal("adding a name kept the fingerprint")
	}
	if want := fmt.Sprintf("v%d+%s", SchemaVersion, a); Stamp([]string{"b", "a"}) != want {
		t.Fatalf("Stamp = %q, want %q", Stamp([]string{"b", "a"}), want)
	}
}

// storeContract exercises the shared Store semantics on any implementation.
func storeContract(t *testing.T, st Store) {
	t.Helper()
	r1, r2 := testRecord(1, "v1"), testRecord(2, "v1")
	if _, ok := st.Get(r1.Key); ok {
		t.Fatal("empty store Get hit")
	}
	for _, r := range []Record{r1, r2} {
		if err := st.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	got, ok := st.Get(r1.Key)
	if !ok || string(got.Payload) != string(r1.Payload) || got.Stamp != "v1" {
		t.Fatalf("Get = %+v, %v", got, ok)
	}
	// Last write wins.
	r1b := r1
	r1b.Payload = json.RawMessage(`{"v":100}`)
	if err := st.Put(r1b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []Record{r1b, r2} {
		if got, ok := st.Get(want.Key); !ok || string(got.Payload) != string(want.Payload) {
			t.Fatalf("Get after overwrite = %+v, %v; want payload %s", got, ok, want.Payload)
		}
	}
}

func TestMemStore(t *testing.T) { storeContract(t, NewMem()) }

func TestDiskStore(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	storeContract(t, d)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	if err := d.Put(testRecord(9, "v1")); err == nil {
		t.Fatal("Put after Close succeeded")
	}
}

func TestDiskReload(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := d.Put(testRecord(i, "v1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// The finalized segment must carry the .ndjson name, not .open.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.ndjson"))
	if len(segs) != 1 {
		t.Fatalf("finalized segments = %v, want exactly one", segs)
	}
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != 5 {
		t.Fatalf("reloaded %d records, want 5", d2.Len())
	}
	for i := 0; i < 5; i++ {
		rec, ok := d2.Get(testRecord(i, "v1").Key)
		if !ok || string(rec.Payload) != fmt.Sprintf(`{"v":%d}`, i) {
			t.Fatalf("record %d: %+v, %v", i, rec, ok)
		}
	}
	// A second session appends a new segment; both reload together, and
	// the later segment's record wins for a rewritten key.
	upd := testRecord(0, "v1")
	upd.Payload = json.RawMessage(`{"v":42}`)
	if err := d2.Put(upd); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if rec, _ := d3.Get(upd.Key); string(rec.Payload) != `{"v":42}` {
		t.Fatalf("later segment did not win: %s", rec.Payload)
	}
}

// TestDiskCrashRecovery is the crash drill: a process dies mid-append
// (simulated by truncating the still-.open segment mid-record, no Close)
// and the next Open must adopt the segment, keep every intact record,
// count exactly one torn line, and keep accepting writes.
func TestDiskCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := d.Put(testRecord(i, "v1")); err != nil {
			t.Fatal(err)
		}
	}
	// No Close: the segment stays .open, exactly as a killed process
	// leaves it. Tear the final record in half.
	opens, _ := filepath.Glob(filepath.Join(dir, "seg-*.ndjson.open"))
	if len(opens) != 1 {
		t.Fatalf("open segments = %v, want exactly one", opens)
	}
	data, err := os.ReadFile(opens[0])
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.SplitAfter(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 4 {
		t.Fatalf("segment has %d lines, want 4", len(lines))
	}
	torn := strings.Join(lines[:3], "") + lines[3][:len(lines[3])/2]
	if err := os.WriteFile(opens[0], []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Len() != 3 {
		t.Fatalf("recovered %d records, want 3", d2.Len())
	}
	st, err := d2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.TornLines != 1 {
		t.Fatalf("torn lines = %d, want 1", st.TornLines)
	}
	// The torn segment was adopted: no .open file remains, and new writes
	// land in a fresh segment rather than appending after the tear.
	if opens, _ := filepath.Glob(filepath.Join(dir, "seg-*.ndjson.open")); len(opens) != 0 {
		t.Fatalf("unadopted open segments after recovery: %v", opens)
	}
	if err := d2.Put(testRecord(3, "v1")); err != nil {
		t.Fatal(err)
	}
	if err := d2.Close(); err != nil {
		t.Fatal(err)
	}
	d3, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if d3.Len() != 4 {
		t.Fatalf("post-recovery reload has %d records, want 4", d3.Len())
	}
}

// A CRC-valid-JSON but bit-flipped line must fail the checksum and load
// as a miss, not serve a corrupt payload.
func TestDiskCorruptLineSkipped(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	r := testRecord(1, "v1")
	if err := d.Put(r); err != nil {
		t.Fatal(err)
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.ndjson"))
	data, _ := os.ReadFile(segs[0])
	flipped := strings.Replace(string(data), `{"v":1}`, `{"v":7}`, 1)
	if flipped == string(data) {
		t.Fatal("payload not found in segment")
	}
	if err := os.WriteFile(segs[0], []byte(flipped), 0o644); err != nil {
		t.Fatal(err)
	}
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if _, ok := d2.Get(r.Key); ok {
		t.Fatal("bit-flipped record served instead of skipped")
	}
	if st, _ := d2.Stats(); st.TornLines != 1 {
		t.Fatalf("torn lines = %d, want 1", st.TornLines)
	}
}

func TestDiskGC(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Put(testRecord(i, "old")); err != nil {
			t.Fatal(err)
		}
	}
	for i := 3; i < 5; i++ {
		if err := d.Put(testRecord(i, "new")); err != nil {
			t.Fatal(err)
		}
	}
	removed, err := d.GC(func(rec Record) bool { return rec.Stamp == "new" })
	if err != nil {
		t.Fatal(err)
	}
	if removed != 3 {
		t.Fatalf("removed = %d, want 3", removed)
	}
	if d.Len() != 2 {
		t.Fatalf("live records = %d, want 2", d.Len())
	}
	d2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	if d2.Len() != 2 {
		t.Fatalf("post-GC reload has %d records, want 2", d2.Len())
	}
	st, err := d2.Stats()
	if err != nil {
		t.Fatal(err)
	}
	if st.Segments != 1 || len(st.Stamps) != 1 || st.Stamps["new"] != 2 {
		t.Fatalf("post-GC stats = %+v", st)
	}
	// GC to nothing removes every segment.
	if _, err := d2.GC(func(Record) bool { return false }); err != nil {
		t.Fatal(err)
	}
	if segs, _ := filepath.Glob(filepath.Join(dir, "seg-*")); len(segs) != 0 {
		t.Fatalf("segments after empty GC: %v", segs)
	}
}

func TestVerifyDir(t *testing.T) {
	dir := t.TempDir()
	d, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := d.Put(testRecord(i, "v1")); err != nil {
			t.Fatal(err)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Records != 3 {
		t.Fatalf("clean store report = %+v", rep)
	}
	// Tear the tail: still TailOnly. Then corrupt a middle line of a
	// fresh segment: not TailOnly.
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.ndjson"))
	data, _ := os.ReadFile(segs[0])
	if err := os.WriteFile(segs[0], data[:len(data)-10], 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || rep.Records != 2 || !rep.Segments[0].TailOnly {
		t.Fatalf("torn-tail report = %+v", rep)
	}
	lines := strings.SplitAfter(string(data), "\n")
	lines[0] = "garbage\n"
	if err := os.WriteFile(segs[0], []byte(strings.Join(lines, "")), 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err = VerifyDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() || rep.Segments[0].TailOnly {
		t.Fatalf("mid-file corruption report = %+v", rep)
	}
}

func TestDiskConcurrentPuts(t *testing.T) {
	d, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	done := make(chan error)
	for g := 0; g < 4; g++ {
		go func(g int) {
			for i := 0; i < 50; i++ {
				if err := d.Put(testRecord(g*50+i, "v1")); err != nil {
					done <- err
					return
				}
			}
			done <- nil
		}(g)
	}
	for g := 0; g < 4; g++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if d.Len() != 200 {
		t.Fatalf("records = %d, want 200", d.Len())
	}
}
