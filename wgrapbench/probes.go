package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	wgrap "repro"
	"repro/client"
	"repro/internal/core"
	"repro/internal/cra"
	"repro/internal/durable"
	"repro/internal/engine"
	"repro/internal/flow"
	"repro/internal/serve"
	"repro/internal/tenant"
	"repro/internal/topics"
	"repro/internal/track"
	"repro/internal/wire"
)

// probeReps is how often each probe repeats a call before taking the median.
const probeReps = 5

// probeLayers times calls into each layer's public functions from outside
// and reports the per-layer metrics. traced holds what the workload's traced
// pass already measured; probes fill in the rest.
func probeLayers(ctx context.Context, e *env, tr *tracer, traced *passStats, rep *report) error {
	for _, v := range e.in.venues {
		sp := tr.start("probe.dense."+v.name, 0)
		err := probeDense(ctx, withTrackConflicts(v), tr, sp)
		tr.finish(sp)
		if err != nil {
			return fmt.Errorf("dense probe %s: %w", v.name, err)
		}
	}
	byVenue := func(name string) (float64, []float64) {
		total := 0.0
		var all []float64
		for _, v := range e.in.venues {
			xs := tr.durationsUnder(name, "probe.dense."+v.name)
			total += median(xs)
			all = append(all, xs...)
		}
		return total, all
	}
	fill, fills := byVenue("engine.fill")
	rep.add("engine.fill_ms", "ms", fill, len(fills))
	solve, solves := byVenue("flow.solve")
	rep.add("flow.solve_ms", "ms", solve, len(solves))
	gains := tr.valuesOf("engine.gain_ns")
	rep.add("engine.gain_ns", "ns", median(gains), len(gains))
	conflicts := tr.valuesOf("core.is_conflict_ns")
	rep.add("core.is_conflict_ns", "ns", median(conflicts), len(conflicts))

	// cra: SDGA then SRA, called directly so the rounds are observable.
	var rounds []float64
	sdga := 0.0
	for _, v := range e.in.venues {
		sp := tr.start("probe.cra."+v.name, 0)
		xs, d, err := probeCRA(ctx, v.instance, tr, sp)
		tr.finish(sp)
		if err != nil {
			return fmt.Errorf("cra probe %s: %w", v.name, err)
		}
		sdga += d
		rounds = append(rounds, xs...)
	}
	rep.add("cra.sdga_ms", "ms", sdga, len(e.in.venues))
	rep.add("cra.sra_rounds", "count", float64(len(rounds)), len(rounds))
	rep.add("cra.sra_round_ms", "ms", median(rounds), len(rounds))

	// wgrap: the session's construction/refinement split of the paper's
	// pipeline, from the traced pass when it ran that pipeline.
	if e.cfg.workload != assignPaper.name {
		sp := tr.start("probe.wgrap", 0)
		ps, err := assignPaper.pass(ctx, e, tr, sp)
		tr.finish(sp)
		if err != nil {
			return err
		}
		traced.layer["wgrap.construct_ms"] = ps.layer["wgrap.construct_ms"]
		traced.layer["wgrap.refine_ms"] = ps.layer["wgrap.refine_ms"]
	}
	for _, n := range []string{"wgrap.construct_ms", "wgrap.refine_ms"} {
		rep.add(n, "ms", sum(traced.layer[n]), len(traced.layer[n]))
	}

	sp := tr.start("probe.sparse", 0)
	if err := probeSparse(ctx, e.in.large, e.in.size.candCap, tr, sp, rep); err != nil {
		return err
	}
	tr.finish(sp)

	var resolves []float64
	for _, v := range e.in.venues {
		sp := tr.start("probe.replay."+v.name, 0)
		xs, err := replayInProcess(ctx, v, tr, sp)
		tr.finish(sp)
		if err != nil {
			return err
		}
		resolves = append(resolves, xs...)
	}
	rep.add("wgrap.resolve_ms", "ms", median(resolves), len(resolves))

	sp = tr.start("probe.durable", 0)
	appends, err := probeDurable(e, tr, sp)
	tr.finish(sp)
	if err != nil {
		return err
	}
	rep.add("durable.append_sync_ms", "ms", median(appends), len(appends))

	sp = tr.start("probe.view", 0)
	err = probeView(ctx, e.in.venues[0], tr, sp, rep)
	tr.finish(sp)
	if err != nil {
		return err
	}

	// Served figures come from served passes: the traced pass of
	// serve-replay, plus more until every served tail percentile has ten
	// samples beyond it.
	var served []*passStats
	if e.cfg.workload == serveReplay.name {
		served = append(served, traced)
	}
	var lat opLatencies
	for _, ps := range served {
		lat.merge(ps.lat)
	}
	added := len(served)
	for len(served) == 0 || !lat.enough() {
		if len(served) == maxServedProbes {
			return fmt.Errorf("served probe: tail percentiles still short of samples after %d passes", len(served))
		}
		sp := tr.start("probe.serve", 0)
		ps, err := servePass(ctx, e, tr, sp)
		tr.finish(sp)
		if err != nil {
			return err
		}
		served = append(served, ps)
		lat.merge(ps.lat)
		rep.attempted += ps.attempted
		rep.failed += ps.failed
	}
	checkFinals(e, served[added:], rep)
	lat.report(rep)

	// What the served passes' durable journals wrote, in pages per
	// acknowledged edit: one page per fsynced append, fewer when appends
	// share an fsync.
	var written int64
	for _, ps := range served {
		written += ps.written
	}
	rep.add("durable.pages_per_edit", "pages/edit", float64(written)/4096/float64(len(lat.edit)), len(lat.edit))
	return nil
}

// maxServedProbes bounds the served passes the traced run adds.
const maxServedProbes = 50

// withTrackConflicts is the venue with every conflict its track declares on
// the original pool, the conflict set the served session ends up holding.
func withTrackConflicts(v *venue) *core.Instance {
	in := v.instance.Clone()
	for _, op := range v.track.Ops {
		if op.Kind == track.OpAddConflict && op.R < in.NumReviewers() {
			in.AddConflict(op.R, op.P)
		}
	}
	return in
}

// stage0Spec is the first SDGA stage's profit spec: empty groups, conflicts
// forbidden.
func stage0Spec(in *core.Instance) engine.ProfitSpec {
	groups := make([]core.Vector, in.NumPapers())
	for p := range groups {
		groups[p] = make(core.Vector, in.NumTopics())
	}
	return engine.ProfitSpec{
		GroupVecs:      groups,
		Forbidden:      func(p, r int) bool { return in.IsConflict(r, p) },
		ForbiddenValue: flow.Forbidden,
	}
}

// probeDense fills the stage-0 P×R profit matrix, times single gain and
// conflict lookups over every cell, and solves the stage transport.
func probeDense(ctx context.Context, in *core.Instance, tr *tracer, parent int) error {
	o := engine.New(in)
	spec := stage0Spec(in)
	var m engine.Matrix
	for i := 0; i < probeReps; i++ {
		sp := tr.start("engine.fill", parent)
		err := o.FillProfit(ctx, &m, spec)
		tr.finish(sp)
		if err != nil {
			return err
		}
	}
	P, R := in.NumPapers(), in.NumReviewers()
	zero := spec.GroupVecs[0]
	var sink float64
	for i := 0; i < probeReps; i++ {
		sp := tr.start("engine.gain", parent)
		t0 := time.Now()
		for p := 0; p < P; p++ {
			for r := 0; r < R; r++ {
				sink += o.Gain(p, zero, r)
			}
		}
		tr.value("engine.gain_ns", float64(time.Since(t0).Nanoseconds())/float64(P*R))
		tr.finish(sp)
	}
	hits := 0
	for i := 0; i < probeReps; i++ {
		sp := tr.start("core.is_conflict", parent)
		t0 := time.Now()
		for p := 0; p < P; p++ {
			for r := 0; r < R; r++ {
				if in.IsConflict(r, p) {
					hits++
				}
			}
		}
		tr.value("core.is_conflict_ns", float64(time.Since(t0).Nanoseconds())/float64(P*R))
		tr.finish(sp)
	}
	need := make([]int, P)
	for p := range need {
		need[p] = 1
	}
	caps := make([]int, R)
	for r := range caps {
		caps[r] = in.StageWorkload()
	}
	for i := 0; i < probeReps; i++ {
		sp := tr.start("flow.solve", parent)
		_, _, err := flow.NewTransport().Solve(m.Rows(), need, caps)
		tr.finish(sp)
		if err != nil {
			return err
		}
	}
	// Keep the results of the timed loops live so none is optimized away.
	tr.value("probe.sink", sink+float64(hits))
	return nil
}

// probeCRA runs SDGA then SRA (ω=10, seed 1) on in, recording each
// refinement round as a span. It returns the round durations and the SDGA
// time, both in ms.
func probeCRA(ctx context.Context, in *core.Instance, tr *tracer, parent int) ([]float64, float64, error) {
	sp := tr.start("cra.sdga", parent)
	t0 := time.Now()
	a, err := cra.SDGA{}.AssignContext(ctx, in)
	sdga := ms(time.Since(t0))
	tr.finish(sp)
	if err != nil {
		return nil, 0, err
	}
	var rounds []float64
	sp = tr.start("cra.sra", parent)
	start := time.Now()
	last := start
	sra := cra.SRA{Omega: 10, Seed: 1, OnRound: func(round int, _ float64, elapsed time.Duration) {
		end := start.Add(elapsed)
		tr.add("cra.sra_round", sp, last, end)
		rounds = append(rounds, ms(end.Sub(last)))
		last = end
	}}
	_, err = sra.RefineContext(ctx, in, a)
	tr.finish(sp)
	return rounds, sdga, err
}

// probeSparse times the scale-out path's layers on the large pool: the
// inverted topic index, top-k candidate queries, the candidate-restricted
// profit fill and the sparse stage transport.
func probeSparse(ctx context.Context, in *core.Instance, k int, tr *tracer, parent int, rep *report) error {
	P, R := in.NumPapers(), in.NumReviewers()
	vecs := make([][]float64, R)
	for r := range vecs {
		vecs[r] = in.Reviewers[r].Topics
	}
	var ix *topics.Index
	for i := 0; i < probeReps; i++ {
		sp := tr.start("topics.index", parent)
		ix = topics.BuildIndex(vecs)
		tr.finish(sp)
	}
	index := tr.durationsUnder("topics.index", "probe.sparse")
	rep.add("topics.index_ms", "ms", median(index), len(index))

	// Candidate lists as the solver builds them (buildCandidates in
	// internal/cra/candidates.go, which this copy must follow): three
	// quarters topical top-k, one quarter strided over the pool.
	spread := k / 4
	cands := make([][]int32, P)
	sc := ix.NewScorer()
	sp := tr.start("topics.topk", parent)
	t0 := time.Now()
	for p := 0; p < P; p++ {
		cands[p] = sc.TopK(in.Papers[p].Topics, k-spread, make([]int32, 0, k))
	}
	topk := float64(time.Since(t0).Nanoseconds()) / 1e3 / float64(P)
	tr.finish(sp)
	rep.add("topics.topk_us", "us", topk, P)
	for p, row := range cands {
		for j := 0; j < spread; j++ {
			r := int32((p*spread + j) % R)
			for slices.Contains(row, r) {
				r = (r + 1) % int32(R)
			}
			row = append(row, r)
		}
		slices.Sort(row)
		cands[p] = row
	}

	o := engine.New(in)
	spec := stage0Spec(in)
	var m engine.Matrix
	for i := 0; i < probeReps; i++ {
		sp := tr.start("engine.fill_sparse", parent)
		err := o.FillProfitSparse(ctx, &m, spec, cands)
		tr.finish(sp)
		if err != nil {
			return err
		}
	}
	fills := tr.durationsUnder("engine.fill_sparse", "probe.sparse")
	rep.add("engine.fill_sparse_ms", "ms", median(fills), len(fills))

	need := make([]int, P)
	for p := range need {
		need[p] = 1
	}
	caps := make([]int, R)
	for r := range caps {
		caps[r] = in.StageWorkload()
	}
	for i := 0; i < probeReps; i++ {
		t := &flow.Transport{Workers: runtime.GOMAXPROCS(0), DenseRow: func(row int, buf []float64) []float64 {
			o.FillRowInto(buf, row, spec)
			return buf
		}}
		sp := tr.start("flow.solve_sparse", parent)
		_, _, err := t.SolveSparse(m.Rows(), cands, R, need, caps)
		tr.finish(sp)
		if err != nil {
			return err
		}
	}
	solves := tr.durationsUnder("flow.solve_sparse", "probe.sparse")
	rep.add("flow.solve_sparse_ms", "ms", median(solves), len(solves))
	return nil
}

// probeDurable appends every edit of the venues' tracks to a fresh journal
// under the served flush policy (fsync before return), one Append+Sync per
// edit, and returns the per-edit times in ms.
func probeDurable(e *env, tr *tracer, parent int) ([]float64, error) {
	var out []float64
	for _, v := range e.in.venues {
		dir := filepath.Join(e.scratch, "journal-"+v.name)
		st, err := durable.Create(dir, &durable.State{Instance: v.wire}, -1)
		if err != nil {
			return nil, err
		}
		seq := uint64(0)
		for _, op := range v.track.Ops {
			ed := wireEdit(op)
			if ed.Op == "" {
				continue
			}
			seq++
			sp := tr.start("durable.append_sync", parent)
			t0 := time.Now()
			err := st.Append(durable.Record{Seq: seq, Edit: ed})
			if err == nil {
				err = st.Sync()
			}
			out = append(out, ms(time.Since(t0)))
			tr.finish(sp)
			if err != nil {
				st.Close()
				return nil, err
			}
		}
		if err := st.Close(); err != nil {
			return nil, err
		}
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// probeView times the read path of one solved venue: JSON encoding of the
// wire view, the HTTP handler alone (httptest recorder) and the full client
// round trip over loopback; the client's overhead is the difference of the
// last two medians.
func probeView(ctx context.Context, v *venue, tr *tracer, parent int, rep *report) error {
	reg, err := serve.NewRegistry("")
	if err != nil {
		return err
	}
	defer reg.Close()
	const id = "probe-view"
	t, err := reg.Create(&wire.CreateRequest{ID: id, Instance: v.wire, Config: wire.TenantConfig{Method: "sdga", Seed: 1}})
	if err != nil {
		return err
	}
	if _, err := t.Solver.Solve(ctx); err != nil {
		return err
	}
	const reads = 300
	var encode, handler, round []float64
	size := 0
	for i := 0; i < reads; i++ {
		sp := tr.start("wire.view_encode", parent)
		t0 := time.Now()
		data, err := json.Marshal(tenant.ViewOf(t.Solver.View()))
		encode = append(encode, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.finish(sp)
		if err != nil {
			return err
		}
		size = len(data)
	}
	h := serve.Handler(reg)
	for i := 0; i < reads; i++ {
		rec := httptest.NewRecorder()
		req := httptest.NewRequest("GET", "/v1/tenants/"+id+"/view", nil)
		sp := tr.start("serve.view_handler", parent)
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		handler = append(handler, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.finish(sp)
		if rec.Code != 200 {
			return fmt.Errorf("view handler: status %d", rec.Code)
		}
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	c, err := client.Open(srv.URL)
	if err != nil {
		return err
	}
	defer c.Close()
	for i := 0; i < reads; i++ {
		sp := tr.start("client.view", parent)
		t0 := time.Now()
		_, err := c.View(ctx, id)
		round = append(round, float64(time.Since(t0).Nanoseconds())/1e3)
		tr.finish(sp)
		if err != nil {
			return err
		}
	}
	rep.add("wire.view_encode_us", "us", median(encode), reads)
	rep.add("wire.view_bytes", "bytes", float64(size), 1)
	rep.add("serve.view_handler_us", "us", median(handler), reads)
	rep.add("client.http_overhead_us", "us", median(round)-median(handler), reads)
	return nil
}

// replayInProcess replays a track's ops straight on a wgrap.Solver, timing
// each blocking re-solve: the solver's share of the served resolve latency.
func replayInProcess(ctx context.Context, v *venue, tr *tracer, parent int) ([]float64, error) {
	s, err := wgrap.NewSolver(v.instance, wgrap.WithMethod(wgrap.Method(v.track.Config.Method)), wgrap.WithSeed(v.track.Config.Seed))
	if err != nil {
		return nil, err
	}
	var out []float64
	for _, op := range v.track.Ops {
		var err error
		switch op.Kind {
		case track.OpSolve:
			_, err = s.Solve(ctx)
		case track.OpResolve, track.OpResolveAsync:
			sp := tr.start("wgrap.resolve", parent)
			t0 := time.Now()
			_, err = s.Resolve(ctx)
			out = append(out, ms(time.Since(t0)))
			tr.finish(sp)
		case track.OpAddConflict:
			err = s.AddConflict(op.R, op.P)
		case track.OpWithdraw:
			err = s.WithdrawPaper(op.P)
		case track.OpRestore:
			err = s.RestorePaper(op.P)
		case track.OpSetWorkload:
			err = s.SetWorkload(op.Workload)
		case track.OpAddReviewer:
			_, err = s.AddReviewer(wgrap.Reviewer{ID: op.Reviewer.ID, Name: op.Reviewer.Name, Topics: op.Reviewer.Topics})
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %s: %w", v.name, op.Kind, err)
		}
	}
	return out, nil
}
