// Command wgrapbench is the repository's end-to-end benchmark. It builds its
// inputs from a seed, runs one workload for a fixed time against the
// library, the serving stack or both, checks the outputs, and prints every
// metric by name with its unit and sample count. The last line of standard
// output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// With -trace 0 the metrics are the end-to-end ones of BENCHMARK.json; with
// -trace 1 a separate traced run times calls into each layer and reports the
// per-layer ones. See README.md in this directory.
//
//	bash wgrapbench/run.sh --workload assign-paper --seed 0 --seconds 20 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	size     string
	root     string // checkout root: testdata/ is read and .bench_build/ written here
	record   bool   // store the run's coverage as the recorded value for its seed
}

// metric is one reported number.
type metric struct {
	name  string
	unit  string
	value float64
	n     int // samples behind the value
}

// report is what one run prints.
type report struct {
	correct   bool
	attempted int
	failed    int
	metrics   []metric
	problems  []string
	hashes    []inputHash
	lines     []string // human-readable detail printed before the result
}

func (r *report) add(name, unit string, value float64, n int) {
	r.metrics = append(r.metrics, metric{name, unit, value, n})
}

// fail records a correctness problem; the run then reports correct=false.
func (r *report) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *report) note(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// endToEnd and perLayer list the metric names each mode must print, with
// their units; they mirror BENCHMARK.json.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"pass_s", "s"},
	{"live_heap_mb", "MB"},
	{"coverage_avg", "ratio"},
}

var perLayer = []metricDef{
	{"engine.fill_ms", "ms"},
	{"engine.gain_ns", "ns"},
	{"core.is_conflict_ns", "ns"},
	{"flow.solve_ms", "ms"},
	{"cra.sdga_ms", "ms"},
	{"cra.sra_rounds", "count"},
	{"cra.sra_round_ms", "ms"},
	{"wgrap.construct_ms", "ms"},
	{"wgrap.refine_ms", "ms"},
	{"topics.index_ms", "ms"},
	{"topics.topk_us", "us"},
	{"engine.fill_sparse_ms", "ms"},
	{"flow.solve_sparse_ms", "ms"},
	{"wgrap.resolve_ms", "ms"},
	{"durable.append_sync_ms", "ms"},
	{"durable.pages_per_edit", "pages/edit"},
	{"wire.view_encode_us", "us"},
	{"wire.view_bytes", "bytes"},
	{"serve.view_handler_us", "us"},
	{"client.http_overhead_us", "us"},
	{"serve.edit_p50_ms", "ms"},
	{"serve.edit_p99_ms", "ms"},
	{"serve.resolve_p50_ms", "ms"},
	{"serve.resolve_p90_ms", "ms"},
	{"serve.view_p50_ms", "ms"},
	{"serve.view_p99_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"trace.overhead_ratio", "ratio"},
}

type metricDef struct{ name, unit string }

// workload is one input set the benchmark runs.
type workload struct {
	name string
	why  string
	// load builds the inputs from the seed; it is never timed.
	load func(in *inputs) error
	// setup performs the workload's set-up once, tears it down, and returns
	// how long the set-up took.
	setup func(ctx context.Context, e *env) (time.Duration, error)
	// pass runs the workload once. A nil tracer is the timed, untraced run.
	pass func(ctx context.Context, e *env, tr *tracer, parent int) (*passStats, error)
	// summarize turns the passes of a timed run into end-to-end metrics and
	// checks them.
	summarize func(e *env, passes []*passStats, rep *report)
}

var workloads = []*workload{assignPaper, assignLarge, serveReplay}

func findWorkload(name string) *workload {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// env is the state shared by one run's passes.
type env struct {
	cfg     config
	in      *inputs
	scratch string // per-run directory under .bench_build for durable data
}

// passStats is what one pass measured.
type passStats struct {
	wall      time.Duration
	heapMB    float64 // live heap with the pass's solvers or server still up
	attempted int
	failed    int
	coverage  []coverage // per venue, in venue order
	finals    []final    // per venue end state (served passes)
	lat       opLatencies
	written   int64                // bytes written to storage during a traced served pass
	layer     map[string][]float64 // per-layer samples (traced passes only)
}

type coverage struct{ avg, min float64 }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("wgrapbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: assign-paper, assign-large or serve-replay")
	fs.Int64Var(&cfg.seed, "seed", 0, "input seed; 0 replays the committed inputs, any other seed generates held-out ones")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long the timed run measures")
	fs.IntVar(&trace, "trace", 0, "1: traced per-layer run instead of the timed end-to-end run")
	fs.StringVar(&cfg.size, "size", "paper", "input size: paper (the benchmark) or tiny (self-tests)")
	fs.StringVar(&cfg.root, "root", ".", "checkout root")
	fs.BoolVar(&cfg.record, "record", false, "store this run's coverage as the recorded value for its seed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if trace != 0 && trace != 1 {
		fmt.Fprintln(stderr, "wgrapbench: -trace must be 0 or 1")
		return 2
	}
	cfg.trace = trace == 1
	rep, err := execute(context.Background(), cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "wgrapbench:", err)
		return 1
	}
	printReport(stdout, cfg, rep)
	if !rep.correct {
		return 1
	}
	return 0
}

// execute runs one benchmark invocation and returns its report.
func execute(ctx context.Context, cfg config, logw io.Writer) (*report, error) {
	w := findWorkload(cfg.workload)
	if w == nil {
		return nil, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	sz, ok := sizeTable[cfg.size]
	if !ok {
		return nil, fmt.Errorf("unknown size %q", cfg.size)
	}
	if cfg.seconds <= 0 {
		return nil, errors.New("-seconds must be positive")
	}
	root, err := filepath.Abs(cfg.root)
	if err != nil {
		return nil, err
	}
	cfg.root = root
	in := &inputs{seed: cfg.seed, size: sz, root: root}
	e := &env{cfg: cfg, in: in}
	if err := os.MkdirAll(filepath.Join(root, ".bench_build"), 0o755); err != nil {
		return nil, err
	}
	if e.scratch, err = os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-"); err != nil {
		return nil, err
	}
	defer os.RemoveAll(e.scratch)

	t0 := time.Now()
	if cfg.trace {
		err = loadAll(in)
	} else {
		err = w.load(in)
	}
	if err != nil {
		return nil, fmt.Errorf("building inputs: %w", err)
	}
	fmt.Fprintf(logw, "wgrapbench: %s seed %d: inputs built in %.1fs\n", w.name, cfg.seed, time.Since(t0).Seconds())

	rep := &report{hashes: in.hashes}
	if cfg.trace {
		err = tracedRun(ctx, e, w, rep)
	} else {
		err = timedRun(ctx, e, w, rep)
	}
	if err != nil {
		return nil, err
	}
	rep.correct = len(rep.problems) == 0 && rep.failed == 0
	return rep, nil
}

// loadAll builds every input: the traced run probes every layer.
func loadAll(in *inputs) error {
	if err := in.loadVenues(true); err != nil {
		return err
	}
	return in.loadLarge()
}

// A timed run sets the workload up before every pass, each time for at
// least setupSlice, and after the last pass until the set-ups have taken
// setupTotal in all. Set-ups run in batches of back-to-back set-ups that last
// at least setupBatch, each batch from a collected heap; a batch's figure is
// its time per set-up, and setup_s is the median over at least setupBatches
// batches. Spreading the set-ups
// over the whole run lets them see the same machine as the passes, not one
// second of it.
const (
	setupBatches = 15
	setupSlice   = 500 * time.Millisecond
	setupTotal   = 3 * time.Second
	setupBatch   = 20 * time.Millisecond
)

// timedRun repeats the workload's pass until the run's time is spent, with
// set-ups between the passes, and reports the end-to-end metrics.
func timedRun(ctx context.Context, e *env, w *workload, rep *report) error {
	var setups []float64
	var setupTime time.Duration
	setUp := func(done func(time.Duration) bool) error {
		for t0 := time.Now(); !done(time.Since(t0)); {
			// Every batch starts from a collected heap, so no batch pays for
			// a collection of garbage that earlier batches left.
			runtime.GC()
			var busy time.Duration
			n := 0
			for busy < setupBatch {
				d, err := w.setup(ctx, e)
				if err != nil {
					return fmt.Errorf("set-up: %w", err)
				}
				busy += d
				n++
			}
			setups = append(setups, busy.Seconds()/float64(n))
			setupTime += busy
		}
		return nil
	}
	budget := time.Duration(e.cfg.seconds * float64(time.Second))
	start := time.Now()
	var passes []*passStats
	for len(passes) == 0 || time.Since(start) < budget {
		if err := setUp(func(d time.Duration) bool { return d >= setupSlice }); err != nil {
			return err
		}
		runtime.GC() // collect input and previous-pass garbage outside the timing
		ps, err := w.pass(ctx, e, nil, 0)
		if err != nil {
			return err
		}
		passes = append(passes, ps)
		rep.attempted += ps.attempted
		rep.failed += ps.failed
	}
	if err := setUp(func(time.Duration) bool { return len(setups) >= setupBatches && setupTime >= setupTotal }); err != nil {
		return err
	}
	walls := make([]float64, len(passes))
	for i, ps := range passes {
		walls[i] = ps.wall.Seconds()
		rep.note("pass %d: %.4fs (edits %.3fs, resolves %.3fs)", i, walls[i], sum(ps.lat.edit)/1e3, sum(ps.lat.resolve)/1e3)
	}
	rep.add("setup_s", "s", median(setups), len(setups))
	rep.add("pass_s", "s", median(walls), len(walls))
	heaps := make([]float64, len(passes))
	for i, ps := range passes {
		heaps[i] = ps.heapMB
	}
	rep.add("live_heap_mb", "MB", median(heaps), len(heaps))
	rep.note("peak RSS %.1f MB", peakRSSMB())
	w.summarize(e, passes, rep)
	return nil
}

// tracedRun measures the workload's pass untraced and traced (their ratio is
// the tracing overhead), then probes every layer.
func tracedRun(ctx context.Context, e *env, w *workload, rep *report) error {
	plain, err := w.pass(ctx, e, nil, 0)
	if err != nil {
		return err
	}
	tr := newTracer()
	root := tr.start("trace."+w.name, 0)
	traced, err := w.pass(ctx, e, tr, root)
	if err != nil {
		return err
	}
	tr.finish(root)
	rep.attempted += plain.attempted + traced.attempted
	rep.failed += plain.failed + traced.failed
	rep.add("trace.overhead_ratio", "ratio", traced.wall.Seconds()/plain.wall.Seconds(), 2)
	w.summarize(e, []*passStats{plain, traced}, rep)
	if err := probeLayers(ctx, e, tr, traced, rep); err != nil {
		return err
	}
	path := filepath.Join(e.cfg.root, ".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", w.name, e.cfg.seed))
	if err := tr.write(path); err != nil {
		return err
	}
	rep.note("spans: %d written to %s", len(tr.snapshot()), path)
	return nil
}

// liveHeapMB collects garbage and returns the live heap: the memory the
// workload's state holds.
func liveHeapMB() float64 {
	runtime.GC()
	runtime.GC() // the second cycle also empties sync.Pool victim caches
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// peakRSSMB is the process's peak resident set size.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// printReport prints the human-readable table, the input hashes and, last,
// the one-line JSON result restricted to the mode's metric list.
func printReport(out io.Writer, cfg config, rep *report) {
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	byName := map[string]metric{}
	for _, m := range rep.metrics {
		byName[m.name] = m
	}
	for _, h := range rep.hashes {
		fmt.Fprintf(out, "input %-40s sha256 %s\n", h.name, h.sum)
	}
	for _, l := range rep.lines {
		fmt.Fprintln(out, l)
	}
	names := make([]string, 0, len(byName))
	for n := range byName {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := byName[n]
		fmt.Fprintf(out, "metric %-26s %14.6g %-6s n=%d\n", m.name, m.value, m.unit, m.n)
	}
	for _, p := range rep.problems {
		fmt.Fprintln(out, "INCORRECT:", p)
	}
	type jm struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]jm{}
	for _, d := range want {
		m, ok := byName[d.name]
		if !ok || math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			rep.correct = false
			fmt.Fprintf(out, "INCORRECT: metric %s missing\n", d.name)
			continue
		}
		metrics[d.name] = jm{m.value, d.unit}
	}
	line, _ := json.Marshal(struct {
		Correct   bool          `json:"correct"`
		Attempted int           `json:"attempted"`
		Failed    int           `json:"failed"`
		Metrics   map[string]jm `json:"metrics"`
	}{rep.correct, rep.attempted, rep.failed, metrics})
	fmt.Fprintln(out, string(line))
}
