package experiments

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/chaos"
	"repro/internal/engine"
	"repro/internal/market"
	"repro/internal/modelcache"
	"repro/internal/provenance"
	"repro/internal/replay"
	"repro/internal/strategy"
	"repro/internal/telemetry"
	"repro/internal/trace"
	"repro/internal/trace/colbin"
	"repro/internal/workload"
)

// Flags is the command surface cmd/replay, cmd/experiments and
// "experiments tournament" share: which market to replay, at what
// scale, and which records of the run to write. Register declares the
// flags, Open turns their values into an Env and the run's Sink.
type Flags struct {
	Seed      uint64  // -seed
	Train     int64   // -train, weeks
	Weeks     int64   // -weeks
	Jobs      int     // -j
	Trace     string  // -trace: replay this file instead of the synthetic market
	Types     string  // -types: extra instance types, comma-separated
	MinVCPU   int     // -min-vcpu
	MinMem    float64 // -min-mem, GiB
	Chaos     string  // -chaos: builtin scenario name or JSON file
	ChaosSeed uint64  // -chaos-seed

	ModelStats  bool   // -model-stats
	EventsOut   string // -events-out
	SpansSample int    // -spans-sample
	Manifest    string // -manifest

	// Lenient and Workload are inputs only cmd/replay offers (as
	// -lenient-traces and -workload); Register leaves them alone.
	// Lenient quarantines malformed rows of the trace and workload
	// files instead of failing the read; Workload names a request-rate
	// CSV that arms every cell's autoscaler.
	Lenient  bool
	Workload string

	// only is Register's subset; keys of flags a command does not have
	// stay out of its run metadata.
	only []string
}

// Register declares the shared flags on fs — all fourteen, or only
// the named ones — bound to f's fields, with DefaultEnv's seed and
// paper scale as their defaults.
func (f *Flags) Register(fs *flag.FlagSet, only ...string) {
	f.only = only
	def := DefaultEnv()
	all := flag.NewFlagSet("", flag.ContinueOnError)
	all.Uint64Var(&f.Seed, "seed", def.Seed, "master seed for trace generation and replay")
	all.Int64Var(&f.Train, "train", def.TrainWeeks, "training prefix in weeks (paper: ~13)")
	all.Int64Var(&f.Weeks, "weeks", def.ReplayWeeks, "replay length in weeks (paper: 11)")
	all.IntVar(&f.Jobs, "j", runtime.NumCPU(), "worker-pool width for replay cells (0 or 1 = sequential; results are identical either way)")
	all.StringVar(&f.Trace, "trace", "", "replay over this trace file instead of the synthetic market; format auto-detected, colbin binary or CSV (CSV rows are filtered against the service's base type and -types)")
	all.StringVar(&f.Types, "types", "", "comma-separated extra instance types: bid across (zone, type) pools instead of zones only")
	all.IntVar(&f.MinVCPU, "min-vcpu", 0, "drop every pool whose instance type offers fewer vCPUs from the replayed market (0 = unconstrained)")
	all.Float64Var(&f.MinMem, "min-mem", 0, "drop every pool whose instance type offers less memory, in GiB, from the replayed market (0 = unconstrained)")
	all.StringVar(&f.Chaos, "chaos", "", "arm every replay cell with a fault-injection scenario: a builtin name ("+strings.Join(chaos.BuiltinNames(), ", ")+") or a JSON scenario file")
	all.Uint64Var(&f.ChaosSeed, "chaos-seed", 0, "override the chaos scenario's seed (0 = use the scenario's own)")
	all.BoolVar(&f.ModelStats, "model-stats", false, "share one price-model cache across the whole run and print its hit/train counters at the end")
	all.StringVar(&f.EventsOut, "events-out", "", "write every replay cell's event trace as JSONL to this file ('-' = stdout); cells then replay one at a time, each grid's longest interval first, so the file is the same at any -j")
	all.IntVar(&f.SpansSample, "spans-sample", 0, "with -manifest, record every Nth decision's provenance spans in its replay cell's record (1 = all, 0 = none; see cmd/analyze explain)")
	all.StringVar(&f.Manifest, "manifest", "", "write the run's record (JSON) to this file ('-' = stdout): config, seed, wall time, and one record per replay cell with its result, its cost/downtime attribution (see cmd/analyze attribute) and, with -spans-sample, its decision spans")
	all.VisitAll(func(fl *flag.Flag) {
		if f.has(fl.Name) {
			fs.Var(fl.Value, fl.Name, fl.Usage)
		}
	})
}

// ParseList parses s, the value of the list flag -name: the empty
// string is the empty list, and otherwise the list splits at top-level
// commas, so a strategy spec's argument list ("extra(2, 0.2)") stays one
// element. Each element is trimmed and handed to parse. A blank element,
// one parse rejects, and one that parses to an earlier element's value
// are errors of the form `-name entry N ("element"): reason`.
func ParseList[T comparable](name, s string, parse func(string) (T, error)) ([]T, error) {
	if s == "" {
		return nil, nil
	}
	var elems []string
	depth, start := 0, 0
	for i, c := range s {
		switch c {
		case '(':
			depth++
		case ')':
			depth--
		case ',':
			if depth == 0 {
				elems = append(elems, s[start:i])
				start = i + 1
			}
		}
	}
	elems = append(elems, s[start:])
	out := make([]T, 0, len(elems))
	for i, elem := range elems {
		elem = strings.TrimSpace(elem)
		at := fmt.Sprintf("-%s entry %d (%q)", name, i+1, elem)
		if elem == "" {
			return nil, fmt.Errorf("%s: empty", at)
		}
		v, err := parse(elem)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", at, err)
		}
		if j := slices.Index(out, v); j >= 0 {
			return nil, fmt.Errorf("%s: repeats entry %d", at, j+1)
		}
		out = append(out, v)
	}
	return out, nil
}

// ParseTypes parses a -types list of extra instance types against the
// base type, whose pools every market already holds: an entry equal to
// it adds no pool, and is an error rather than a market without it.
func ParseTypes(s string, base market.InstanceType) ([]market.InstanceType, error) {
	return ParseList("types", s, func(e string) (market.InstanceType, error) {
		t, err := market.ParseType(e)
		if err == nil && t == base {
			err = fmt.Errorf("is the base type; -types lists the extra ones")
		}
		return t, err
	})
}

// GeneratorFlagsWithTrace reports -seed or -zones set on fs, where
// -trace names a file to read: both shape a generated market.
func GeneratorFlagsWithTrace(fs *flag.FlagSet) (err error) {
	fs.Visit(func(f *flag.Flag) {
		if err == nil && (f.Name == "seed" || f.Name == "zones") {
			err = fmt.Errorf("-%s shapes a generated market; -trace reads one", f.Name)
		}
	})
	return err
}

// ReadTrace reads the trace file at path through colbin.ReadAny, which
// detects the format from its bytes: a CSV file is read against base
// and types over [0, end), a colbin file describes itself. The read is
// strict, or with lenient quarantines malformed rows, which it reports
// on stderr under command's name.
func ReadTrace(command, path string, base market.InstanceType, types []market.InstanceType, end int64, lenient bool) (*trace.Set, *trace.ReadReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	mode := trace.Strict
	if lenient {
		mode = trace.Lenient
	}
	set, rep, err := colbin.ReadAny(f, base, types, 0, end, mode)
	if err != nil {
		return nil, nil, err
	}
	fmt.Fprint(os.Stderr, rep.Summary(command, "trace"))
	return set, rep, nil
}

// has reports whether the command offers the named shared flag.
func (f *Flags) has(name string) bool {
	return len(f.only) == 0 || slices.Contains(f.only, name)
}

// meta builds the run's metadata — the event-trace header and the
// manifest config are both this one map — from the
// command's own key-value pairs and the shared flags. Seed and scale
// are always present; every other key appears only when its flag is
// set, so a default run's headers never grow.
func (f *Flags) meta(command string, kv []string) map[string]string {
	kv = append([]string{"command", command}, kv...)
	add := func(name, value string, set bool) {
		if set && f.has(name) {
			kv = append(kv, name, value)
		}
	}
	add("seed", strconv.FormatUint(f.Seed, 10), true)
	add("train", strconv.FormatInt(f.Train, 10), true)
	add("weeks", strconv.FormatInt(f.Weeks, 10), true)
	add("trace", f.Trace, f.Trace != "")
	add("chaos", f.Chaos, f.Chaos != "")
	add("chaos-seed", strconv.FormatUint(f.ChaosSeed, 10), f.Chaos != "")
	add("types", f.Types, f.Types != "")
	add("min-vcpu", strconv.Itoa(f.MinVCPU), f.MinVCPU > 0)
	add("min-mem", strconv.FormatFloat(f.MinMem, 'g', -1, 64), f.MinMem > 0)
	add("spans-sample", strconv.Itoa(f.SpansSample), f.SpansSample > 0)
	return telemetry.SortedMeta(kv...)
}

// Open turns the parsed flags into the run: the Env (types parsed,
// constraints stamped, chaos loaded, the trace file read through
// colbin.ReadAny against spec's base type, the workload read over the
// replay span) and the Sink every replay cell of that Env reports to.
// kv are the command's own metadata pairs ("run", "fig6"); the run's
// clock starts here. Close the Sink when the run ends.
func (f Flags) Open(command string, spec strategy.ServiceSpec, kv ...string) (Env, *Sink, error) {
	if f.Train < 1 {
		return Env{}, nil, fmt.Errorf("-train %d: want at least 1 week of training history", f.Train)
	}
	if f.Weeks < 1 {
		return Env{}, nil, fmt.Errorf("-weeks %d: want at least 1 week to replay", f.Weeks)
	}
	if f.Jobs < 0 {
		return Env{}, nil, fmt.Errorf("-j %d: want 0 or more workers (0 and 1 both replay one cell at a time)", f.Jobs)
	}
	if f.SpansSample < 0 {
		return Env{}, nil, fmt.Errorf("-spans-sample %d: want 0 (no spans) or N >= 1 (every Nth decision)", f.SpansSample)
	}
	if f.SpansSample > 0 && f.Manifest == "" {
		// Spans live in the manifest's replay records: with no manifest
		// they would go nowhere.
		return Env{}, nil, fmt.Errorf("-spans-sample records spans in the run manifest; it needs -manifest")
	}
	if f.EventsOut != "" {
		// The trace names the cell that trained each model of a shared
		// price-model cache, and cells on a worker pool race to train
		// them: only cells replayed one at a time give the same bytes at
		// any -j. Every grid streams them longest interval first (the
		// dispatch order of longestFirst), not in grid order.
		f.Jobs = 1
	}
	s := &Sink{flags: f, command: command, start: time.Now()}
	types, err := ParseTypes(f.Types, spec.Type)
	if err != nil {
		return Env{}, nil, err
	}
	e := Env{
		Seed: f.Seed, TrainWeeks: f.Train, ReplayWeeks: f.Weeks, Jobs: f.Jobs,
		Types: types, MinVCPU: f.MinVCPU, MinMemGiB: f.MinMem, sink: s,
	}
	if f.ModelStats {
		s.models = modelcache.New()
		e.Models = s.models
	}
	if f.Chaos != "" {
		sc, err := chaos.Load(f.Chaos)
		if err != nil {
			return Env{}, nil, err
		}
		e.Chaos, e.ChaosSeed = &sc, f.ChaosSeed
		fmt.Fprintf(os.Stderr, "%s: chaos scenario %q armed (%d injectors)\n", command, sc.Name, len(sc.Injectors))
	}
	span := (f.Train + f.Weeks) * Week
	if f.Trace != "" {
		set, rep, err := ReadTrace(command, f.Trace, spec.Type, types, span, f.Lenient)
		if err != nil {
			return Env{}, nil, err
		}
		s.quarantined(f.Trace, rep)
		e.TraceSet = set
	}
	if f.Workload != "" {
		file, err := os.Open(f.Workload)
		if err != nil {
			return Env{}, nil, err
		}
		mode := trace.Strict
		if f.Lenient {
			mode = trace.Lenient
		}
		wl, rep, err := workload.ReadCSVMode(file, f.Train*Week, span, mode)
		file.Close()
		if err != nil {
			return Env{}, nil, err
		}
		fmt.Fprint(os.Stderr, rep.Summary(command, "workload"))
		s.quarantined(f.Workload, rep)
		e.Workload = wl
		// The workload key follows the replay kernel's arming rule
		// (workload.Plan.Holds): it appears only when the plan can move
		// the group size at all, so a flat workload's headers stay
		// byte-identical to a fixed-n run's.
		plan, err := workload.DefaultAutoscaler(spec.BaseNodes).Plan(wl)
		if err != nil {
			return Env{}, nil, err
		}
		if !plan.Holds(spec.BaseNodes) {
			kv = append(kv, "workload", f.Workload)
		}
	}
	s.meta = f.meta(command, kv)

	if f.EventsOut != "" {
		// Stdout is the caller's: wrapped, it is no io.Closer, so the
		// trace writer flushes it and leaves it open for the manifest.
		var w io.Writer = struct{ io.Writer }{os.Stdout}
		if f.EventsOut != "-" {
			file, err := os.Create(f.EventsOut)
			if err != nil {
				return Env{}, nil, err
			}
			w = file
		}
		if s.writer, err = telemetry.NewTraceWriter(w, s.meta); err != nil {
			return Env{}, nil, err
		}
	}
	return e, s, nil
}

// Sink is the one place a run's records are assembled. Every replay
// cell opens once — the shared event TraceWriter, a fresh Ledger, a
// fresh provenance Recorder, each only if a flag asked for it — in a
// slot fixed by the cell's place in the grid, and Close writes the
// manifest's records in that order: their bytes are the same at any -j.
// A nil *Sink, or one no flag armed, leaves cells unobserved and the
// replay hot path event-free.
type Sink struct {
	flags   Flags
	command string
	meta    map[string]string
	start   time.Time

	writer *telemetry.TraceWriter
	models *modelcache.Cache
	// quarantine holds each lenient read's quarantined-row counts by
	// reason, keyed by the file read.
	quarantine map[string]map[string]int

	mu    sync.Mutex
	cells []*sinkCell
}

// sinkCell is one replay's record: its label, its ledger and result,
// and its spans (-spans-sample).
type sinkCell struct {
	label provenance.Stamp
	rec   *provenance.Recorder
	led   *provenance.Ledger
	res   *replay.Result
}

// quarantined keeps a lenient read's quarantined-row counts by reason
// for the manifest. A clean read keeps nothing.
func (s *Sink) quarantined(source string, rep *trace.ReadReport) {
	if rep != nil && rep.Quarantined > 0 {
		if s.quarantine == nil {
			s.quarantine = map[string]map[string]int{}
		}
		s.quarantine[source] = rep.Reasons
	}
}

// reserve claims n consecutive cell slots and returns the first. It is
// called sequentially, before the cells fan out to workers, so a cell's
// slot — and with it the order of everything Close writes — is fixed by
// the grid and never by the scheduler.
func (s *Sink) reserve(n int) int {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	base := len(s.cells)
	s.cells = append(s.cells, make([]*sinkCell, n)...)
	return base
}

// cell opens one replay cell in a reserved slot and returns its
// observers and its span recorder (nil unless -spans-sample). The
// ledger, when kept, observes last. Safe for concurrent calls: per-run
// state is built fresh, the trace writer is a shared sink that locks
// for itself.
func (s *Sink) cell(slot int, label provenance.Stamp) ([]engine.Observer, *provenance.Recorder) {
	if s == nil {
		return nil, nil
	}
	var obs []engine.Observer
	if s.writer != nil {
		obs = append(obs, s.writer)
	}
	c := &sinkCell{label: label}
	if s.flags.SpansSample > 0 {
		c.rec = provenance.NewRecorder(s.flags.SpansSample)
	}
	if s.flags.Manifest != "" {
		c.led = provenance.NewLedger()
		obs = append(obs, c.led)
	}
	s.mu.Lock()
	s.cells[slot] = c
	s.mu.Unlock()
	return obs, c.rec
}

// done records an opened slot's result.
func (s *Sink) done(slot int, res *replay.Result) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.cells[slot].res = res
	s.mu.Unlock()
}

// attribution returns the ledger table of the cell that produced res,
// or false when the run keeps no ledgers (no -manifest).
func (s *Sink) attribution(res *replay.Result) (provenance.Attribution, bool) {
	if s != nil {
		for _, c := range s.cells {
			if c != nil && c.res == res && c.led != nil {
				return c.led.Attribution(), true
			}
		}
	}
	return provenance.Attribution{}, false
}

// Close ends the run: it prints the model-cache counters (-model-stats),
// flushes the event trace, then writes the manifest. It returns runErr,
// or else the first error of its own. Stdout is never closed, so "-"
// works for several outputs at once, the manifest last.
func (s *Sink) Close(runErr error) error {
	ok := runErr == nil
	keep := func(err error) {
		if runErr == nil {
			runErr = err
		}
	}
	if ok && s.models != nil {
		fmt.Println(s.models.Stats())
	}
	if s.writer != nil {
		keep(s.writer.Close())
	}
	if s.flags.Manifest != "" {
		keep(writeOut(s.flags.Manifest, "manifest", func(w io.Writer) error {
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			return enc.Encode(s.manifest())
		}))
	}
	return runErr
}

// manifest assembles the run's metadata, and one record per finished
// replay cell in slot order.
func (s *Sink) manifest() Manifest {
	cfg := map[string]string{"jobs": strconv.Itoa(s.flags.Jobs)}
	for k, v := range s.meta {
		if k != "command" {
			cfg[k] = v
		}
	}
	m := Manifest{
		Schema: ManifestSchema, Version: ManifestVersion, Command: s.command,
		StartedAt: s.start.UTC().Format(time.RFC3339), WallSeconds: time.Since(s.start).Seconds(),
		Seed: s.flags.Seed, Config: cfg, Quarantined: s.quarantine,
	}
	for _, c := range s.cells {
		if c != nil && c.res != nil {
			m.Runs = append(m.Runs, Record{Stamp: c.label, Result: c.res, Attribution: c.led.Attribution(), Spans: c.rec.Spans()})
		}
	}
	return m
}

// writeOut writes one end-of-run output to path; "-" is stdout, which
// stays open. write never sees an io.Closer: writeOut closes the file.
func writeOut(path, what string, write func(io.Writer) error) error {
	if path == "-" {
		return write(struct{ io.Writer }{os.Stdout})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(struct{ io.Writer }{f}); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	fmt.Println("wrote", what, "to", path)
	return nil
}
