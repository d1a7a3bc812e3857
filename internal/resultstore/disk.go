package resultstore

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// On-disk layout: a store directory holds append-only NDJSON segments.
// Finalized segments are seg-NNNNNN.ndjson; the segment currently being
// appended to is seg-NNNNNN.open and is atomically renamed to .ndjson on
// Close (or adopted — renamed as-is — by the next Open after a crash).
// Writes never append to a pre-existing segment: a torn tail from a
// crash can then never be concatenated with fresh records, and reload
// only ever has to skip trailing garbage, not resynchronize mid-file.
const (
	segPattern = "seg-*.ndjson"
	openSuffix = ".open"
)

func segName(seq int) string { return fmt.Sprintf("seg-%06d.ndjson", seq) }

// diskRecord is the NDJSON line shape: the record plus a CRC32 over its
// fields, so a torn or bit-flipped line fails closed (skipped on reload,
// treated as a miss) instead of serving a corrupt payload.
type diskRecord struct {
	Key     string          `json:"key"`
	Stamp   string          `json:"stamp"`
	Payload json.RawMessage `json:"payload"`
	CRC     uint32          `json:"crc"`
}

// recordCRC covers every field of the line; the \x00 separators keep
// (key, stamp) boundaries unambiguous.
func recordCRC(keyHex, stamp string, payload []byte) uint32 {
	crc := crc32.ChecksumIEEE([]byte(keyHex))
	crc = crc32.Update(crc, crc32.IEEETable, []byte{0})
	crc = crc32.Update(crc, crc32.IEEETable, []byte(stamp))
	crc = crc32.Update(crc, crc32.IEEETable, []byte{0})
	return crc32.Update(crc, crc32.IEEETable, payload)
}

// parseLine decodes and checks one segment line. ok is false for any
// damage — truncated JSON, a bad key, a CRC mismatch — never an error:
// damaged lines are data loss already recorded torn, not a reason to
// fail the whole store.
func parseLine(line []byte) (Record, bool) {
	var dr diskRecord
	if err := json.Unmarshal(line, &dr); err != nil {
		return Record{}, false
	}
	k, err := ParseKey(dr.Key)
	if err != nil {
		return Record{}, false
	}
	if recordCRC(dr.Key, dr.Stamp, dr.Payload) != dr.CRC {
		return Record{}, false
	}
	return Record{Key: k, Stamp: dr.Stamp, Payload: dr.Payload}, true
}

// Disk is the durable Store: all records live in an in-memory index
// (lookups never touch the disk), every Put appends one line to the
// active segment before returning, and Close finalizes the segment with
// an atomic rename. Safe for concurrent use.
type Disk struct {
	dir string

	mu     sync.Mutex
	idx    map[Key]int
	recs   []Record
	active *os.File // nil until the first Put, and again after Close
	seq    int      // next segment number
	torn   int      // damaged lines skipped on Open
	closed bool
}

// Open loads (creating if needed) the store directory: any .open segment
// left by a crashed process is adopted (renamed to a finalized segment —
// its intact lines are data), then every segment is replayed oldest
// first into the index, later records winning. Damaged lines — a torn
// tail from a crash, a corrupt byte — are skipped and counted, never
// fatal: the worst outcome of damage is re-simulating the lost rows.
func Open(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	opens, err := filepath.Glob(filepath.Join(dir, segPattern+openSuffix))
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	for _, o := range opens {
		if err := os.Rename(o, strings.TrimSuffix(o, openSuffix)); err != nil {
			return nil, fmt.Errorf("resultstore: adopting %s: %w", filepath.Base(o), err)
		}
	}
	segs, err := filepath.Glob(filepath.Join(dir, segPattern))
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	sort.Strings(segs)
	d := &Disk{dir: dir, idx: map[Key]int{}}
	for _, seg := range segs {
		var n int
		if _, err := fmt.Sscanf(filepath.Base(seg), "seg-%d.ndjson", &n); err == nil && n >= d.seq {
			d.seq = n + 1
		}
		if err := d.loadSegment(seg); err != nil {
			return nil, err
		}
	}
	return d, nil
}

// loadSegment replays one finalized segment into the index.
func (d *Disk) loadSegment(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	for sc.Scan() {
		rec, ok := parseLine(sc.Bytes())
		if !ok {
			d.torn++
			continue
		}
		d.insert(rec)
	}
	if err := sc.Err(); err != nil {
		// An over-long or unreadable tail is damage like any other torn
		// line: count it and keep what already replayed.
		d.torn++
	}
	return nil
}

// maxLineBytes bounds one segment line; payloads are a few hundred bytes,
// so the megabyte ceiling only guards the scanner against garbage.
const maxLineBytes = 1 << 20

// insert indexes rec, later records winning (callers hold mu or are the
// constructor).
func (d *Disk) insert(rec Record) {
	if i, ok := d.idx[rec.Key]; ok {
		d.recs[i] = rec
		return
	}
	d.idx[rec.Key] = len(d.recs)
	d.recs = append(d.recs, rec)
}

// Get returns the record stored under k (index-only; no disk access).
func (d *Disk) Get(k Key) (Record, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	i, ok := d.idx[k]
	if !ok {
		return Record{}, false
	}
	return d.recs[i], true
}

// Len reports the number of live (deduplicated) records.
func (d *Disk) Len() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.recs)
}

// Put appends rec to the active segment and indexes it. A Put identical
// to the stored record is a no-op (warm re-runs rewrite nothing); a
// changed payload under an existing key is appended and wins on reload.
// The append is one write of one complete line, so a crash can tear at
// most the final line of the segment. Holding the lock across the append
// serializes writers and is the durability contract — Put has persisted
// the record when it returns — at a cost hot paths never see: executors
// Put once per simulated row, microseconds against the row's seconds.
func (d *Disk) Put(rec Record) error {
	line, err := marshalLine(rec)
	if err != nil {
		return err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("resultstore: Put on closed store %s", d.dir)
	}
	if i, ok := d.idx[rec.Key]; ok && sameRecord(d.recs[i], rec) {
		return nil
	}
	if d.active == nil {
		name := filepath.Join(d.dir, segName(d.seq)+openSuffix)
		//mithril:allow lockheld store appends are the durability contract; rows simulate for seconds, appends take microseconds
		f, err := os.OpenFile(name, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return fmt.Errorf("resultstore: %w", err)
		}
		d.active = f
		d.seq++
	}
	//mithril:allow lockheld store appends are the durability contract; rows simulate for seconds, appends take microseconds
	if _, err := d.active.Write(line); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	d.insert(rec)
	return nil
}

func sameRecord(a, b Record) bool {
	return a.Stamp == b.Stamp && string(a.Payload) == string(b.Payload)
}

// marshalLine renders one complete segment line, newline included.
func marshalLine(rec Record) ([]byte, error) {
	dr := diskRecord{
		Key:     rec.Key.String(),
		Stamp:   rec.Stamp,
		Payload: rec.Payload,
		CRC:     recordCRC(rec.Key.String(), rec.Stamp, rec.Payload),
	}
	line, err := json.Marshal(dr)
	if err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	return append(line, '\n'), nil
}

// Close finalizes the active segment: sync, close, and atomic rename
// from .open to .ndjson. Closing a store with no writes is a no-op; a
// closed store still serves reads but refuses Put.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	//mithril:allow lockheld shutdown path; no simulation work contends here
	return d.finalizeActive()
}

// finalizeActive is Close's body, shared with GC; callers hold mu.
func (d *Disk) finalizeActive() error {
	d.closed = true
	if d.active == nil {
		return nil
	}
	f := d.active
	d.active = nil
	//mithril:allow lockheld shutdown path; no simulation work contends here
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("resultstore: %w", err)
	}
	//mithril:allow lockheld shutdown path; no simulation work contends here
	if err := f.Close(); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	name := f.Name()
	//mithril:allow lockheld shutdown path; no simulation work contends here
	if err := os.Rename(name, strings.TrimSuffix(name, openSuffix)); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

// GC compacts the store: live records for which keep returns true are
// rewritten into one fresh segment (written complete, then atomically
// renamed into place), every older segment is removed, and dropped
// records are gone for good. The usual keep predicate is "current
// stamp" — superseded generations stop matching any key anyway, so GC
// is how their bytes are reclaimed. GC finalizes the active segment
// first and leaves the store closed to writes.
func (d *Disk) GC(keep func(rec Record) bool) (removed int, err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	//mithril:allow lockheld offline maintenance; nothing else runs during GC
	if err := d.finalizeActive(); err != nil {
		return 0, err
	}
	var live []Record
	for _, rec := range d.recs {
		//mithril:allow lockheld keep is a pure predicate over one record; nothing else runs during GC
		if keep(rec) {
			live = append(live, rec)
		} else {
			removed++
		}
	}
	//mithril:allow lockheld offline maintenance; nothing else runs during GC
	old, err := filepath.Glob(filepath.Join(d.dir, segPattern))
	if err != nil {
		return 0, fmt.Errorf("resultstore: %w", err)
	}
	final := filepath.Join(d.dir, segName(d.seq))
	d.seq++
	if len(live) > 0 {
		tmp := final + ".tmp"
		//mithril:allow lockheld offline maintenance; nothing else runs during GC
		f, err := os.OpenFile(tmp, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
		if err != nil {
			return 0, fmt.Errorf("resultstore: %w", err)
		}
		//mithril:allow lockheld offline maintenance; nothing else runs during GC
		if err := writeAll(f, live); err != nil {
			//mithril:allow lockheld offline maintenance; nothing else runs during GC
			f.Close()
			//mithril:allow lockheld offline maintenance; nothing else runs during GC
			os.Remove(tmp)
			return 0, err
		}
		//mithril:allow lockheld offline maintenance; nothing else runs during GC
		if err := os.Rename(tmp, final); err != nil {
			return 0, fmt.Errorf("resultstore: %w", err)
		}
	}
	for _, seg := range old {
		//mithril:allow lockheld offline maintenance; nothing else runs during GC
		if err := os.Remove(seg); err != nil {
			return 0, fmt.Errorf("resultstore: %w", err)
		}
	}
	d.idx = map[Key]int{}
	d.recs = nil
	d.torn = 0
	for _, rec := range live {
		d.insert(rec)
	}
	return removed, nil
}

// writeAll streams records into a segment file and syncs and closes it.
func writeAll(f *os.File, recs []Record) error {
	w := bufio.NewWriter(f)
	for _, rec := range recs {
		line, err := marshalLine(rec)
		if err != nil {
			return err
		}
		if _, err := w.Write(line); err != nil {
			return fmt.Errorf("resultstore: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	return nil
}

// Stats summarizes the store for the CLI's `store stats`.
type Stats struct {
	Dir       string
	Segments  int
	Records   int // live (deduplicated) records
	TornLines int // damaged lines skipped on Open
	Bytes     int64
	// Stamps counts live records per version stamp; more than one entry
	// means superseded generations are still occupying bytes (GC them).
	Stamps map[string]int
}

// Stats reports the store's live shape. Segment count and byte size come
// from the directory; record counts from the index.
func (d *Disk) Stats() (Stats, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	st := Stats{Dir: d.dir, Records: len(d.recs), TornLines: d.torn, Stamps: map[string]int{}}
	for _, rec := range d.recs {
		st.Stamps[rec.Stamp]++
	}
	//mithril:allow lockheld maintenance statistics; no simulation work contends here
	segs, err := filepath.Glob(filepath.Join(d.dir, segPattern))
	if err != nil {
		return Stats{}, fmt.Errorf("resultstore: %w", err)
	}
	//mithril:allow lockheld maintenance statistics; no simulation work contends here
	opens, err := filepath.Glob(filepath.Join(d.dir, segPattern+openSuffix))
	if err != nil {
		return Stats{}, fmt.Errorf("resultstore: %w", err)
	}
	for _, seg := range append(segs, opens...) {
		//mithril:allow lockheld maintenance statistics; no simulation work contends here
		fi, err := os.Stat(seg)
		if err != nil {
			return Stats{}, fmt.Errorf("resultstore: %w", err)
		}
		st.Segments++
		st.Bytes += fi.Size()
	}
	return st, nil
}
