// Command mithrilsim regenerates every table and figure of the Mithril
// paper's evaluation (HPCA 2022) from the reproduction library, runs
// arbitrary declarative experiment specs, and serves them over HTTP.
//
// Usage:
//
//	mithrilsim <command> [args] [-full] [-flipth N] [-jobs N] [-format F]
//	           [-timeout D] [-addr HOST:PORT]
//
// Everything runs on one mithril.Engine: simulation sweeps fan out over
// -jobs workers (default: all cores; -jobs 1 forces the serial path),
// -timeout bounds the whole invocation (the sweep cancels cooperatively
// and aborts mid-simulation), and Ctrl-C cancels the same way. When
// stderr is a terminal, sweeps render live per-grid-point progress there;
// stdout output is unaffected. Parallel and serial runs print
// byte-identical output. Simulation commands accept -format
// table|json|csv|golden (table is the human default; json/csv are
// machine-readable rows; golden is the raw full-precision line format the
// testdata/golden_*.txt regression files are pinned in).
//
// Commands:
//
//	figure2   ARR-Graphene vs RFM-Graphene incompatibility curves
//	figure6   feasible (Nentry, RFMTH) configurations per FlipTH
//	figure8   lbm-like large-object-sweep characterization
//	table4    per-bank counter table sizes vs the paper's Table IV
//	parfm     Appendix C failure probabilities and required RFMTH
//	figure7   adaptive-refresh energy/area sweep over AdTH
//	figure9   Mithril vs Mithril+ performance/area grid
//	figure10  RFM-compatible scheme comparison (perf/energy/area)
//	figure11  RFM-non-compatible baseline comparison
//	safety    attack sweep: bit-flip verdicts per scheme
//	all       everything above
//	run       execute an experiment spec: run <spec.json | shipped-name>
//	          (-workers URLS or -spawn N fans the grid out across a
//	          worker fleet; output is byte-identical to a local run)
//	list      list the shipped experiment specs
//	schemes   list the mitigation-scheme table
//	workloads list the workload table (and the trace:<path> form)
//	attacks   list the attack-pattern table
//	          (schemes/workloads/attacks read a remote fleet's catalog
//	          with -server HOST:PORT)
//	diff      run a spec and diff its golden-format output against a file:
//	          diff <spec.json | shipped-name> <golden.txt>
//	serve     HTTP service: POST /v1/run streams a spec's rows as NDJSON;
//	          -coordinator fronts a -workers fleet (or -spawn local ones)
//	store     result-store maintenance: store <stats|gc|verify> (-store DIR)
//	version   print the result-store schema version and scheme-table stamp
//
// With -store DIR, every sweep runs against a durable content-addressed
// result store: rows already stored are served without simulating, fresh
// rows are written back as workers finish, and an interrupted run picks
// up where it left off when re-run with the same directory. Output is
// byte-identical with and without the store.
//
// The figure7/9/10/11 and safety commands are shipped specs: `figure10`
// is `run figure10.quick` (with -full, `run figure10.full`), and `safety`
// runs safety.quick (or safety.full) at the -flipth FlipTH.
package main

import (
	"context"
	"flag"
	"fmt"
	"math"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mithril"
	"mithril/internal/expspec"
	"mithril/internal/stats"
)

// env carries the parsed global flags into command handlers.
type env struct {
	full        bool
	flipTH      int
	jobs        int
	format      string
	timeout     time.Duration
	addr        string
	storeDir    string
	workers     string // -workers: comma-separated worker base URLs
	spawn       int    // -spawn: local worker processes to start
	coordinator bool   // -coordinator: serve as fleet front-end
	server      string // -server: remote mithrilsim to introspect
	// store is the opened -store directory (nil without the flag): every
	// sweep consults it before simulating a row and writes rows back, so
	// re-running an interrupted sweep simulates only the missing rows.
	store mithril.ResultStore
}

// engine builds the Engine every command runs on: the -jobs worker count
// plus live progress on stderr (when it is a terminal) under the given
// label; extra options (a run's -workers fan-out) stack on top.
func (e env) engine(label string, extra ...mithril.EngineOption) *mithril.Engine {
	opts := []mithril.EngineOption{}
	opts = append(opts, extra...)
	if e.jobs != 0 {
		opts = append(opts, mithril.WithJobs(e.jobs))
	}
	if p := stderrProgress(label); p != nil {
		opts = append(opts, mithril.WithProgress(p))
	}
	if e.store != nil {
		opts = append(opts, mithril.WithResultStore(e.store))
	}
	return mithril.NewEngine(mithril.DDR5(), opts...)
}

// stderrProgress renders live per-grid-point progress on stderr when it is
// a terminal; piped/CI stderr stays clean. The line is redrawn in place
// and finished with a newline on the last point.
func stderrProgress(label string) mithril.ProgressFunc {
	fi, err := os.Stderr.Stat()
	if err != nil || fi.Mode()&os.ModeCharDevice == 0 {
		return nil
	}
	return func(done, total int) {
		fmt.Fprintf(os.Stderr, "\r%s: %d/%d grid points", label, done, total)
		if done == total {
			fmt.Fprintln(os.Stderr)
		}
	}
}

// command is one CLI subcommand. Dispatch, the usage line, and the `all`
// sequence all derive from this single ordered table, so a new subcommand
// cannot appear in one and silently drop out of another.
type command struct {
	name  string
	args  string // positional-argument usage, e.g. "<spec.json>"
	nargs int    // required positional count
	inAll bool   // part of the `all` sequence
	run   func(ctx context.Context, e env, args []string) error
}

// commands is ordered as `all` executes: analytic figures first, then the
// simulation sweeps (cheapest to most expensive), then the spec tooling
// (excluded from `all`: run/diff need arguments, serve never returns).
var commands = []command{
	{name: "figure2", inAll: true, run: func(_ context.Context, e env, _ []string) error { return figure2() }},
	{name: "figure6", inAll: true, run: func(_ context.Context, e env, _ []string) error { return figure6() }},
	{name: "figure8", inAll: true, run: func(_ context.Context, e env, _ []string) error { return figure8() }},
	{name: "table4", inAll: true, run: func(_ context.Context, e env, _ []string) error { return table4() }},
	{name: "parfm", inAll: true, run: func(_ context.Context, e env, _ []string) error { return parfm() }},
	{name: "figure7", inAll: true, run: figureCmd("figure7")},
	{name: "figure9", inAll: true, run: figureCmd("figure9")},
	{name: "figure10", inAll: true, run: figureCmd("figure10")},
	{name: "figure11", inAll: true, run: figureCmd("figure11")},
	{name: "safety", inAll: true, run: figureCmd("safety")},
	{name: "run", args: "<spec.json>", nargs: 1, run: runCmd},
	{name: "list", run: listCmd},
	{name: "schemes", run: schemesCmd},
	{name: "workloads", run: workloadsCmd},
	{name: "attacks", run: attacksCmd},
	{name: "diff", args: "<spec.json> <golden.txt>", nargs: 2, run: diffCmd},
	{name: "serve", run: serveCmd},
	{name: "store", args: "<stats|gc|verify>", nargs: 1, run: storeCmd},
	{name: "version", run: versionCmd},
}

func usage() {
	var names []string
	for _, c := range commands {
		names = append(names, c.name)
	}
	// `all` sits between the figure commands and the spec tooling.
	fmt.Fprintf(os.Stderr, "usage: mithrilsim <%s|all> [args] [flags]\n", strings.Join(names, "|"))
	for _, c := range commands {
		if c.args != "" {
			fmt.Fprintf(os.Stderr, "       mithrilsim %s %s\n", c.name, c.args)
		}
	}
	flag.PrintDefaults()
}

func main() { os.Exit(run()) }

// run is main's body behind an exit code instead of os.Exit calls, so
// the result store's deferred Close runs on every path — including an
// interrupted sweep, whose already-completed rows are the whole point of
// resuming with the same -store directory.
func run() int {
	full := flag.Bool("full", false, "run at the paper's full scale (16 cores, all FlipTH levels)")
	flipTH := flag.Int("flipth", 2000, "FlipTH for the safety sweep")
	jobs := flag.Int("jobs", 0, "sweep worker count (0 = all cores, 1 = serial)")
	format := flag.String("format", expspec.FormatTable, "output format: table, json, csv, or golden")
	timeout := flag.Duration("timeout", 0, "abort the whole invocation after this duration (0 = none)")
	addr := flag.String("addr", "localhost:8377", "listen address for the serve command")
	storeDir := flag.String("store", "", "content-addressed result store directory: sweep rows already stored are served instead of re-simulated, fresh rows are written back (maintain with `mithrilsim store`)")
	workers := flag.String("workers", "", "comma-separated worker base URLs: run fans the grid out across the fleet; serve -coordinator fronts it")
	spawn := flag.Int("spawn", 0, "spawn N local worker processes as the fleet (single-machine fan-out; implies a coordinator role for run/serve)")
	coordinator := flag.Bool("coordinator", false, "serve as a fleet coordinator (uses -workers, or spawns -spawn/2 local workers)")
	server := flag.String("server", "", "remote mithrilsim base URL: schemes/workloads/attacks read the fleet's catalog instead of the local tables")
	flag.Usage = usage
	if len(os.Args) < 2 {
		flag.Usage()
		return 2
	}
	cmd := os.Args[1]
	// Parse flags and positionals in any order: flag.Parse stops at the
	// first positional, so peel positionals off and keep parsing.
	rest := os.Args[2:]
	var pos []string
	for {
		if err := flag.CommandLine.Parse(rest); err != nil {
			// Defensive: flag.ExitOnError exits on malformed flags itself;
			// this path covers any other error handling mode.
			fmt.Fprintf(os.Stderr, "mithrilsim: %v\n", err)
			flag.Usage()
			return 2
		}
		rest = flag.CommandLine.Args()
		if len(rest) == 0 {
			break
		}
		pos = append(pos, rest[0])
		rest = rest[1:]
	}
	e := env{full: *full, flipTH: *flipTH, jobs: *jobs, format: *format, timeout: *timeout, addr: *addr, storeDir: *storeDir,
		workers: *workers, spawn: *spawn, coordinator: *coordinator, server: *server}

	// Open the -store directory once for the whole invocation; Close
	// (deferred) finalizes the active segment even when the command
	// fails or the sweep is interrupted. The `store` maintenance command
	// manages the directory itself — `store verify` must stay read-only,
	// and opening here would adopt crash-left segments before it looked.
	if e.storeDir != "" && cmd != "store" {
		d, err := mithril.OpenResultStore(e.storeDir)
		if err != nil {
			fmt.Fprintf(os.Stderr, "mithrilsim: %v\n", err)
			return 1
		}
		e.store = d
		defer func() {
			if err := d.Close(); err != nil {
				fmt.Fprintf(os.Stderr, "mithrilsim: closing store: %v\n", err)
			}
		}()
	}

	// One root context governs the whole invocation: -timeout bounds it,
	// Ctrl-C / SIGTERM cancel it, and every sweep (and every in-flight
	// simulation) aborts cooperatively when it is done.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if e.timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, e.timeout)
		defer cancel()
	}

	if cmd == "all" {
		if len(pos) > 0 {
			fmt.Fprintf(os.Stderr, "mithrilsim: unexpected arguments: %v\n", pos)
			flag.Usage()
			return 2
		}
		for _, c := range commands {
			if !c.inAll {
				continue
			}
			if err := c.run(ctx, e, nil); err != nil {
				fmt.Fprintf(os.Stderr, "%s: %v\n", c.name, err)
				return 1
			}
		}
		return 0
	}
	for _, c := range commands {
		if c.name != cmd {
			continue
		}
		if len(pos) != c.nargs {
			fmt.Fprintf(os.Stderr, "mithrilsim %s: want %d argument(s) %s, got %v\n", c.name, c.nargs, c.args, pos)
			flag.Usage()
			return 2
		}
		if err := c.run(ctx, e, pos); err != nil {
			fmt.Fprintf(os.Stderr, "%s: %v\n", c.name, err)
			return 1
		}
		return 0
	}
	flag.Usage()
	return 2
}

func header(title string) {
	fmt.Printf("\n=== %s ===\n\n", title)
}

// emit prints a spec result in the requested format; the table format gets
// the figure's title banner, machine formats are bare. With a result
// store attached, the cache-effectiveness split lands on stderr (stdout
// must stay byte-identical with and without -store) in greppable
// rows=/cached=/simulated= form — the CI store-equivalence job asserts
// warm re-runs simulate nothing.
func emit(e env, res *expspec.Result) error {
	if e.store != nil {
		fmt.Fprintf(os.Stderr, "mithrilsim: %s: rows=%d cached=%d simulated=%d\n",
			res.Spec.Name, res.RowsCached+res.RowsSimulated, res.RowsCached, res.RowsSimulated)
	}
	if e.format == expspec.FormatTable {
		header(res.Spec.Title)
	}
	return res.Emit(os.Stdout, e.format)
}

// shippedSpec loads a spec by path, falling back to the shipped specs by
// name ("figure10.quick" or "figure10.quick.json") when no such file
// exists.
func shippedSpec(arg string) (*expspec.Spec, error) {
	if _, err := os.Stat(arg); err == nil {
		return expspec.Load(arg)
	}
	name := strings.TrimSuffix(arg, ".json")
	sp, err := mithril.LoadShippedSpec(name)
	if err != nil {
		return nil, fmt.Errorf("no spec file %q and no shipped spec %q (see `mithrilsim list`)", arg, name)
	}
	return sp, nil
}

// figureCmd backs a figure command with its shipped quick spec (with
// -full, the full one), run exactly as `run` runs it; the safety sweep
// takes its FlipTH axis from -flipth.
func figureCmd(base string) func(ctx context.Context, e env, _ []string) error {
	return func(ctx context.Context, e env, _ []string) error {
		variant := "quick"
		if e.full {
			variant = "full"
		}
		sp, err := mithril.LoadShippedSpec(base + "." + variant)
		if err != nil {
			return err
		}
		if base == "safety" {
			sp.Axes.FlipTHs = []int{e.flipTH}
			sp.Title = fmt.Sprintf("Safety sweep — full-simulator attacks at FlipTH=%d", e.flipTH)
		}
		return runSpec(ctx, e, sp)
	}
}

// runCmd executes an arbitrary experiment spec.
func runCmd(ctx context.Context, e env, args []string) error {
	sp, err := shippedSpec(args[0])
	if err != nil {
		return err
	}
	return runSpec(ctx, e, sp)
}

// runSpec executes a spec at its own scale and emits it. With -workers
// (an existing fleet) or -spawn N (freshly started local worker
// processes), the grid fans out across the fleet instead of simulating
// in-process; output is byte-identical either way.
func runSpec(ctx context.Context, e env, sp *expspec.Spec) error {
	var extra []mithril.EngineOption
	if e.fleetConfigured() {
		fleet, shutdown, err := e.fleet(ctx)
		if err != nil {
			return err
		}
		defer shutdown()
		extra = append(extra, mithril.WithWorkers(fleet))
	}
	res, err := e.engine(sp.Name, extra...).RunSpec(ctx, sp)
	if err != nil {
		return err
	}
	return emit(e, res)
}

// listCmd prints the shipped spec inventory.
func listCmd(_ context.Context, e env, _ []string) error {
	specs, err := expspec.LoadAll(mithril.SpecsFS(), "specs")
	if err != nil {
		return err
	}
	t := stats.NewTable("name", "kind", "scale", "rows", "title")
	for _, sp := range specs {
		sc, err := sp.Scale.Resolve()
		if err != nil {
			return err
		}
		t.Add(sp.Name, string(sp.Kind), sp.Scale.Preset,
			strconv.Itoa(len(sp.Expand(sc))), sp.Title)
	}
	fmt.Print(t)
	return nil
}

// schemesCmd prints the mitigation-scheme table, one sorted name per
// line — the same inventory spec validation and the serve catalog
// endpoint use, so CI can diff it against the README's scenario catalog.
// With -server it prints the remote fleet's catalog instead.
func schemesCmd(ctx context.Context, e env, _ []string) error {
	names := mithril.SchemeNames()
	if e.server != "" {
		cat, err := fetchCatalog(ctx, e.server)
		if err != nil {
			return err
		}
		names = cat.Schemes
	}
	for _, n := range names {
		fmt.Println(n)
	}
	return nil
}

// workloadsCmd prints the workload table with descriptions, plus the
// trace:<path> replay form every workload axis accepts. With -server it
// prints the remote fleet's catalog instead (no trace row: trace replays
// are not accepted over HTTP).
func workloadsCmd(ctx context.Context, e env, _ []string) error {
	t := stats.NewTable("name", "description")
	if e.server != "" {
		cat, err := fetchCatalog(ctx, e.server)
		if err != nil {
			return err
		}
		for _, w := range cat.Workloads {
			t.Add(w.Name, w.Desc)
		}
		fmt.Print(t)
		return nil
	}
	for _, w := range mithril.WorkloadCatalog() {
		t.Add(w.Name, w.Desc)
	}
	t.Add("trace:<path>", "replay a recorded access-trace file (format: README \"Trace-file format\")")
	fmt.Print(t)
	return nil
}

// attacksCmd prints the attack-pattern table with descriptions. With
// -server it prints the remote fleet's catalog instead.
func attacksCmd(ctx context.Context, e env, _ []string) error {
	t := stats.NewTable("name", "description")
	if e.server != "" {
		cat, err := fetchCatalog(ctx, e.server)
		if err != nil {
			return err
		}
		for _, a := range cat.Attacks {
			t.Add(a.Name, a.Desc)
		}
		fmt.Print(t)
		return nil
	}
	for _, a := range mithril.AttackCatalog() {
		t.Add(a.Name, a.Desc)
	}
	fmt.Print(t)
	return nil
}

// diffCmd runs a spec and compares its golden-format output against a
// pinned file (the CI golden-figures gate); any divergence is printed
// line-by-line and fails the command.
func diffCmd(ctx context.Context, e env, args []string) error {
	sp, err := shippedSpec(args[0])
	if err != nil {
		return err
	}
	want, err := os.ReadFile(args[1])
	if err != nil {
		return err
	}
	res, err := e.engine(sp.Name).RunSpec(ctx, sp)
	if err != nil {
		return err
	}
	got := res.Golden()
	if got == string(want) {
		fmt.Printf("%s: %d rows match %s\n", sp.Name, strings.Count(got, "\n"), args[1])
		return nil
	}
	return fmt.Errorf("%s diverges from %s:\n%s", sp.Name, args[1], stats.DiffLines(string(want), got))
}

// ------------------------------------------------------- analytic commands

func figure2() error {
	header("Figure 2 — safe FlipTH: ARR-Graphene vs RFM-Graphene")
	pts := mithril.Figure2Data()
	t := stats.NewTable("threshold", "ARR", "RFM-256", "RFM-128", "RFM-64", "RFM-32")
	for _, p := range pts {
		t.Add(strconv.Itoa(p.Threshold),
			fmt.Sprintf("%.1fK", p.ARR/1000),
			fmt.Sprintf("%.1fK", p.RFM[256]/1000),
			fmt.Sprintf("%.1fK", p.RFM[128]/1000),
			fmt.Sprintf("%.1fK", p.RFM[64]/1000),
			fmt.Sprintf("%.1fK", p.RFM[32]/1000))
	}
	fmt.Print(t)
	return nil
}

func figure6() error {
	header("Figure 6 — feasible (table size, RFMTH) per FlipTH (CbS vs Lossy Counting)")
	t := stats.NewTable("FlipTH", "RFMTH", "Nentry(CbS)", "KB(CbS)", "Nentry(LC)", "KB(LC)")
	for _, s := range mithril.Figure6Data() {
		lossy := map[int]mithril.MithrilConfig{}
		for _, l := range s.Lossy {
			lossy[l.RFMTH] = l
		}
		for _, c := range s.CbS {
			lcN, lcKB := "-", "-"
			if l, ok := lossy[c.RFMTH]; ok {
				lcN, lcKB = strconv.Itoa(l.NEntry), fmt.Sprintf("%.2f", l.TableKB)
			}
			t.Add(strconv.Itoa(s.FlipTH), strconv.Itoa(c.RFMTH),
				strconv.Itoa(c.NEntry), fmt.Sprintf("%.2f", c.TableKB), lcN, lcKB)
		}
	}
	fmt.Print(t)
	return nil
}

func figure8() error {
	header("Figure 8 — large-object sweep (lbm-like) characterization")
	d := mithril.Figure8()
	fmt.Printf("large window (100K accesses): %d distinct rows\n", d.LargeDistinct)
	fmt.Printf("small window (512 accesses):  %d distinct rows, max %d accesses to one row\n",
		d.SmallDistinct, d.SmallMaxRow)
	fmt.Printf("activations in small window:  %d (row locality filters %.1f%% of accesses)\n",
		len(d.Activations), 100*(1-float64(len(d.Activations))/float64(len(d.SmallWindow))))
	fmt.Println("\nsmall-window access pattern (access# -> bank-local row):")
	for i, s := range d.SmallWindow {
		if i%64 == 0 {
			fmt.Printf("  %5d -> row %d (bank %d)\n", s.Index, s.Row, s.Bank)
		}
	}
	return nil
}

func table4() error {
	header("Table IV — per-bank counter table size (KB): computed vs paper")
	computed, paper := mithril.Table4Data()
	flipTHs := mithril.StandardFlipTHs()
	headers := []string{"scheme"}
	for _, f := range flipTHs {
		headers = append(headers, fmt.Sprintf("%gK", float64(f)/1000))
	}
	t := stats.NewTable(headers...)
	cell := func(v float64) string {
		if math.IsNaN(v) {
			return "-"
		}
		return fmt.Sprintf("%.2f", v)
	}
	for i := range computed {
		row := []string{computed[i].Scheme}
		for _, f := range flipTHs {
			row = append(row, cell(computed[i].KB[f]))
		}
		t.Add(row...)
		ref := []string{"  (paper)"}
		for _, f := range flipTHs {
			ref = append(ref, cell(paper[i].KB[f]))
		}
		t.Add(ref...)
	}
	fmt.Print(t)
	return nil
}

func parfm() error {
	header("Appendix C — PARFM failure probability (target 1e-15, 22 banks)")
	t := stats.NewTable("FlipTH", "required RFMTH", "bank failure", "system failure")
	for _, f := range mithril.StandardFlipTHs() {
		r, ok := mithril.PARFMRequiredRFMTH(f)
		if !ok {
			t.Add(strconv.Itoa(f), "-", "-", "-")
			continue
		}
		bank, system := mithril.PARFMFailure(f, r)
		t.Add(strconv.Itoa(f), strconv.Itoa(r),
			fmt.Sprintf("%.2e", bank), fmt.Sprintf("%.2e", system))
	}
	fmt.Print(t)
	return nil
}
