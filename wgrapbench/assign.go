package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	wgrap "repro"
	"repro/internal/core"
	"repro/internal/wire"
)

// assignPaper is the paper's experiment: a cold SDGA-SRA solve (ω=10, δp=3,
// minimum balanced workload, fixed solver seed) of each paper venue.
var assignPaper = &workload{
	name:  "assign-paper",
	why:   "the paper's experiment: cold SDGA-SRA on the three paper venues, dense engine/flow/cra with SRA rounds dominating",
	load:  func(in *inputs) error { return in.loadVenues(false) },
	setup: func(_ context.Context, e *env) (time.Duration, error) { return constructSolvers(paperJobs(e)) },
	pass: func(ctx context.Context, e *env, tr *tracer, parent int) (*passStats, error) {
		return solvePass(ctx, paperJobs(e), tr, parent)
	},
	// The paper venues are fixed: the seed does not change this workload's
	// inputs, so its coverage is recorded once for every seed.
	summarize: summarizeAssign(false),
}

func paperJobs(e *env) []solveJob {
	var jobs []solveJob
	for _, v := range e.in.venues {
		jobs = append(jobs, solveJob{v.name, v.instance, v.wire, []wgrap.Option{
			wgrap.WithMethod(wgrap.MethodSDGASRA), wgrap.WithOmega(10), wgrap.WithSeed(1)}})
	}
	return jobs
}

// assignLarge is the scale-out path: a cold SDGA solve of a Zipf-skewed
// 20k-paper, 40k-reviewer pool under a candidate cap of 64.
var assignLarge = &workload{
	name:  "assign-large",
	why:   "the scale-out path: cold SDGA with a candidate cap on a Zipf-skewed 20k x 40k pool, the only user of topics and sparse engine/flow",
	load:  func(in *inputs) error { return in.loadLarge() },
	setup: func(_ context.Context, e *env) (time.Duration, error) { return constructSolvers(largeJobs(e)) },
	pass: func(ctx context.Context, e *env, tr *tracer, parent int) (*passStats, error) {
		return solvePass(ctx, largeJobs(e), tr, parent)
	},
	summarize: summarizeAssign(true),
}

func largeJobs(e *env) []solveJob {
	return []solveJob{{"large", e.in.large, e.in.largeWire, []wgrap.Option{
		wgrap.WithMethod(wgrap.MethodSDGA), wgrap.WithCandidateCap(e.in.size.candCap)}}}
}

// solveJob is one cold solve of an assign pass.
type solveJob struct {
	name string
	in   *core.Instance
	wire *wire.Instance
	opts []wgrap.Option
}

// constructSolvers is the assign workloads' set-up: for every job, the
// instance is built from its wire form, as a chair's upload arrives, and a
// solver is constructed over it.
func constructSolvers(jobs []solveJob) (time.Duration, error) {
	var d time.Duration
	for _, j := range jobs {
		t0 := time.Now()
		in, err := j.wire.ToInstance()
		if err != nil {
			return 0, fmt.Errorf("%s: %w", j.name, err)
		}
		if _, err := wgrap.NewSolver(in, j.opts...); err != nil {
			return 0, fmt.Errorf("%s: new solver: %w", j.name, err)
		}
		d += time.Since(t0)
	}
	return d, nil
}

// solvePass constructs a solver for every job (set-up) and solves it cold
// (the pass). Traced, it splits each solve into construction and refinement
// through the solver's progress stream.
func solvePass(ctx context.Context, jobs []solveJob, tr *tracer, parent int) (*passStats, error) {
	ps := &passStats{layer: map[string][]float64{}}
	var solvers []*wgrap.Solver
	for _, j := range jobs {
		opts := j.opts
		var constructAt time.Time
		if tr != nil {
			opts = append(append([]wgrap.Option(nil), opts...), wgrap.WithProgress(func(sn wgrap.Snapshot) {
				if sn.Phase == "construct" {
					constructAt = time.Now()
				}
			}))
		}
		s, err := wgrap.NewSolver(j.in, opts...)
		if err != nil {
			return nil, fmt.Errorf("%s: new solver: %w", j.name, err)
		}
		t1 := time.Now()
		res, err := s.Solve(ctx)
		t2 := time.Now()
		ps.wall += t2.Sub(t1)
		ps.attempted++
		if err != nil {
			return nil, fmt.Errorf("%s: solve: %w", j.name, err)
		}
		sp := tr.add("wgrap.solve."+j.name, parent, t1, t2)
		if tr != nil && !constructAt.IsZero() {
			tr.add("wgrap.construct", sp, t1, constructAt)
			tr.add("wgrap.refine", sp, constructAt, t2)
			ps.layer["wgrap.construct_ms"] = append(ps.layer["wgrap.construct_ms"], ms(constructAt.Sub(t1)))
			ps.layer["wgrap.refine_ms"] = append(ps.layer["wgrap.refine_ms"], ms(t2.Sub(constructAt)))
		}
		if err := j.in.ValidateAssignment(res.Assignment); err != nil {
			ps.failed++
			continue
		}
		ps.coverage = append(ps.coverage, coverage{res.AverageCoverage, res.LowestCoverage})
		solvers = append(solvers, s)
	}
	ps.heapMB = liveHeapMB()
	runtime.KeepAlive(solvers)
	return ps, nil
}

// summarizeAssign reports coverage and checks it: every pass must agree
// with the first (the solve is deterministic) and with the value recorded
// for the seed, when one is recorded. seeded tells whether the inputs depend
// on the seed; if not, one recorded value serves every seed.
func summarizeAssign(seeded bool) func(e *env, passes []*passStats, rep *report) {
	return func(e *env, passes []*passStats, rep *report) {
		seed := "any"
		if seeded {
			seed = strconv.FormatInt(e.cfg.seed, 10)
		}
		checkCoverage(e, seed, passes, rep)
	}
}

func checkCoverage(e *env, seed string, passes []*passStats, rep *report) {
	first := passes[0].coverage
	for i, ps := range passes[1:] {
		if !sameCoverage(ps.coverage, first) {
			rep.fail("pass %d coverage %v differs from pass 0 %v", i+1, ps.coverage, first)
		}
	}
	if len(first) == 0 {
		rep.fail("no valid assignment")
		return
	}
	reportCoverage(rep, first)
	for i, c := range first {
		rep.note("coverage venue %d avg %.17g min %.17g", i, c.avg, c.min)
	}

	key := e.cfg.workload + "/" + e.cfg.size
	rec := recordedCoverage(expectedJSON)
	if e.cfg.record {
		path := filepath.Join(e.cfg.root, "wgrapbench", "expected.json")
		if data, err := os.ReadFile(path); err == nil {
			rec = recordedCoverage(data)
		}
		if rec[key] == nil {
			rec[key] = map[string][]coverage{}
		}
		rec[key][seed] = first
		if err := writeRecorded(path, rec); err != nil {
			rep.fail("recording coverage: %v", err)
		}
		return
	}
	if want, ok := rec[key][seed]; ok {
		if !sameCoverage(first, want) {
			rep.fail("coverage %v differs from the value recorded for seed %s: %v", first, seed, want)
		}
	} else {
		rep.note("coverage: no recorded value for seed %s (checked for determinism only)", seed)
	}
}

// reportCoverage adds the mean of the venues' average coverage and, for the
// table, the lowest coverage of any paper.
func reportCoverage(rep *report, cs []coverage) {
	avg, lo := 0.0, math.Inf(1)
	for _, c := range cs {
		avg += c.avg / float64(len(cs))
		lo = math.Min(lo, c.min)
	}
	rep.add("coverage_avg", "ratio", avg, len(cs))
	rep.add("coverage_min", "ratio", lo, len(cs))
}

func sameCoverage(a, b []coverage) bool {
	if len(a) != len(b) {
		return false
	}
	close := func(x, y float64) bool { return math.Abs(x-y) <= 1e-9*math.Max(1, math.Abs(y)) }
	for i := range a {
		if !close(a[i].avg, b[i].avg) || !close(a[i].min, b[i].min) {
			return false
		}
	}
	return true
}

//go:embed expected.json
var expectedJSON []byte

// recordedCoverage is expected.json: workload/size → seed → per-venue
// [average, lowest] coverage.
func recordedCoverage(data []byte) map[string]map[string][]coverage {
	var raw map[string]map[string][][2]float64
	if err := json.Unmarshal(data, &raw); err != nil {
		panic(fmt.Sprintf("wgrapbench: expected.json: %v", err))
	}
	out := map[string]map[string][]coverage{}
	for k, seeds := range raw {
		out[k] = map[string][]coverage{}
		for s, vs := range seeds {
			for _, v := range vs {
				out[k][s] = append(out[k][s], coverage{v[0], v[1]})
			}
		}
	}
	return out
}

func writeRecorded(path string, rec map[string]map[string][]coverage) error {
	raw := map[string]map[string][][2]float64{}
	for k, seeds := range rec {
		raw[k] = map[string][][2]float64{}
		for s, cs := range seeds {
			for _, c := range cs {
				raw[k][s] = append(raw[k][s], [2]float64{c.avg, c.min})
			}
		}
	}
	data, err := json.MarshalIndent(raw, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
