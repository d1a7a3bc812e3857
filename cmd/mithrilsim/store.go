package main

// Result-store maintenance (`mithrilsim store <stats|gc|verify>`) and the
// version stamp (`mithrilsim version`). The store subcommand manages the
// -store directory directly rather than through env.store: stats and gc
// open it themselves, and verify deliberately never opens it at all —
// Open adopts crash-left segments (a write), and an integrity check must
// not alter what it is checking.

import (
	"context"
	"fmt"
	"sort"

	"mithril"
	"mithril/internal/resultstore"
	"mithril/internal/stats"
)

// versionCmd prints the schema/scheme-table identity rows are keyed under.
// Operators compare the stamp across builds to predict whether a shared
// store directory will serve hits or re-simulate everything.
func versionCmd(_ context.Context, _ env, _ []string) error {
	fmt.Printf("store schema version:  %d\n", mithril.ResultStoreSchemaVersion)
	fmt.Printf("scheme registry:       %s\n", mithril.ResultStoreFingerprint(mithril.SchemeNames()))
	fmt.Printf("result store stamp:    %s\n", mithril.ResultStoreStamp())
	return nil
}

// storeCmd dispatches the maintenance operations.
func storeCmd(_ context.Context, e env, args []string) error {
	if e.storeDir == "" {
		return fmt.Errorf("store %s needs -store <dir>", args[0])
	}
	switch args[0] {
	case "stats":
		return storeStats(e.storeDir)
	case "gc":
		return storeGC(e.storeDir)
	case "verify":
		return storeVerify(e.storeDir)
	default:
		return fmt.Errorf("unknown store operation %q (want stats, gc, or verify)", args[0])
	}
}

// storeStats opens the store (adopting any crash-left segment, exactly
// as a sweep would) and prints its live shape, including the per-stamp
// record split that tells an operator whether gc has bytes to reclaim.
func storeStats(dir string) error {
	d, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	st, err := d.Stats()
	if err != nil {
		return err
	}
	fmt.Printf("store:     %s\n", st.Dir)
	fmt.Printf("segments:  %d (%d bytes)\n", st.Segments, st.Bytes)
	fmt.Printf("records:   %d live (torn lines skipped on load: %d)\n", st.Records, st.TornLines)
	current := mithril.ResultStoreStamp()
	stamps := make([]string, 0, len(st.Stamps))
	for s := range st.Stamps {
		stamps = append(stamps, s)
	}
	sort.Strings(stamps)
	for _, s := range stamps {
		marker := "stale (gc reclaims)"
		if s == current {
			marker = "current"
		}
		fmt.Printf("stamp %s:  %d records (%s)\n", s, st.Stamps[s], marker)
	}
	if st.Stamps[current] == 0 {
		fmt.Printf("stamp %s:  0 records (current)\n", current)
	}
	return nil
}

// storeGC compacts the store down to records carrying the current
// version stamp: superseded generations can never match a key again, so
// their bytes are pure waste.
func storeGC(dir string) error {
	d, err := resultstore.Open(dir)
	if err != nil {
		return err
	}
	defer d.Close()
	current := mithril.ResultStoreStamp()
	removed, err := d.GC(func(rec resultstore.Record) bool { return rec.Stamp == current })
	if err != nil {
		return err
	}
	fmt.Printf("gc: removed %d stale records, kept %d (stamp %s)\n", removed, d.Len(), current)
	return nil
}

// storeVerify checks every segment read-only and reports damage,
// distinguishing torn tails (a crash mid-append — reload handles these
// by design) from mid-file corruption. Any damage fails the command so
// scripts can gate on it; the report still prints first.
func storeVerify(dir string) error {
	rep, err := resultstore.VerifyDir(dir)
	if err != nil {
		return err
	}
	t := stats.NewTable("segment", "records", "bad lines", "damage")
	for _, sr := range rep.Segments {
		damage := "none"
		switch {
		case sr.BadLines > 0 && sr.TailOnly:
			damage = "torn tail"
		case sr.BadLines > 0:
			damage = "mid-file"
		}
		t.Add(sr.Name, fmt.Sprint(sr.Records), fmt.Sprint(sr.BadLines), damage)
	}
	fmt.Print(t)
	fmt.Printf("total: %d records, %d bad lines\n", rep.Records, rep.BadLines)
	if !rep.Clean() {
		return fmt.Errorf("store %s has %d damaged lines (torn rows re-simulate on next use; gc rewrites clean segments)", dir, rep.BadLines)
	}
	return nil
}
