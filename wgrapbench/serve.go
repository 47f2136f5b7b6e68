package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"repro/client"
	"repro/internal/serve"
	"repro/internal/tenant"
	"repro/internal/track"
	"repro/internal/wire"
)

// serveReplay replays the venues' tracks through the HTTP client against
// the real wgrap-serve handler stack on loopback, with one durable node that
// fsyncs every edit before acknowledging it. A closed-loop writer replays
// the tracks while an open-loop reader sends the tracks' view reads beside it.
var serveReplay = &workload{
	name:  "serve-replay",
	why:   "durable serving over loopback HTTP: warm dirty-row re-solves, fsync-before-ack edits and the tracks' view reads beside the writer",
	load:  func(in *inputs) error { return in.loadVenues(true) },
	setup: setupNode,
	pass:  servePass,
	summarize: func(e *env, passes []*passStats, rep *report) {
		checkFinals(e, passes, rep)
		reportCoverage(rep, passes[0].coverage)
		if e.cfg.trace {
			return // the traced run reports the latencies of more passes
		}
		var all opLatencies
		for _, ps := range passes {
			all.merge(ps.lat)
		}
		all.report(rep)
	},
}

// checkFinals checks that every served pass ended each tenant with the seq
// and objective of an in-process replay of its track.
func checkFinals(e *env, passes []*passStats, rep *report) {
	ref, err := referenceFinals(e.in.venues)
	if err != nil {
		rep.fail("in-process reference replay: %v", err)
		return
	}
	for i, ps := range passes {
		for k, f := range ps.finals {
			if f.seq != ref[k].seq || math.Abs(f.score-ref[k].score) > 1e-9*math.Max(1, math.Abs(ref[k].score)) {
				rep.fail("pass %d venue %s: final seq %d score %.12g, in-process replay seq %d score %.12g",
					i, e.in.venues[k].name, f.seq, f.score, ref[k].seq, ref[k].score)
			}
		}
	}
}

// tenantConfig is the serving configuration: the track's own solver config
// with every edit fsynced before its ack.
func tenantConfig(t *track.Track) wire.TenantConfig {
	cfg := t.Config
	cfg.FsyncIntervalNS = -1
	return cfg
}

// final is a tenant's end state: its accepted-edit sequence and objective.
type final struct {
	seq   uint64
	score float64
}

// referenceFinals replays each track in-process on mem:// under the same
// tenant config; a served replay must end with the same seq and objective.
func referenceFinals(venues []*venue) ([]final, error) {
	c, err := client.Open("mem://")
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var out []final
	for _, v := range venues {
		t := *v.track
		t.Config = tenantConfig(v.track)
		rep, err := track.Replay(context.Background(), c, &t, track.ReplayOptions{})
		if err != nil {
			return nil, err
		}
		if rep.EditsRejected != 0 {
			return nil, fmt.Errorf("%s: %d edits rejected in-process", v.name, rep.EditsRejected)
		}
		out = append(out, final{rep.FinalSeq, rep.FinalScore})
	}
	return out, nil
}

// opLatencies are the client-observed latencies of one or more passes, in ms.
type opLatencies struct {
	edit, resolve, view, late []float64
}

func (l *opLatencies) merge(o opLatencies) {
	l.edit = append(l.edit, o.edit...)
	l.resolve = append(l.resolve, o.resolve...)
	l.view = append(l.view, o.view...)
	l.late = append(l.late, o.late...)
}

// tailStat is one served tail percentile: its metric, samples and quantile.
type tailStat struct {
	name string
	xs   []float64
	q    float64
}

// tails are the tail percentiles of the served latencies; each is reported
// only from enough samples (see tail).
func (l *opLatencies) tails() []tailStat {
	return []tailStat{
		{"serve.edit_p99_ms", l.edit, 0.99},
		{"serve.resolve_p90_ms", l.resolve, 0.9},
		{"serve.view_p99_ms", l.view, 0.99},
		{"loadgen.late_p99_ms", l.late, 0.99},
	}
}

// enough reports whether every tail percentile has ten samples beyond it.
func (l *opLatencies) enough() bool {
	for _, t := range l.tails() {
		if _, ok := tail(t.xs, t.q); !ok {
			return false
		}
	}
	return true
}

// report adds the latency medians and the tail percentiles. A tail
// percentile with fewer than ten samples beyond it is left out, and the
// notes say so.
func (l *opLatencies) report(rep *report) {
	rep.add("serve.edit_p50_ms", "ms", median(l.edit), len(l.edit))
	rep.add("serve.resolve_p50_ms", "ms", median(l.resolve), len(l.resolve))
	rep.add("serve.view_p50_ms", "ms", median(l.view), len(l.view))
	for _, t := range l.tails() {
		v, ok := tail(t.xs, t.q)
		if !ok {
			rep.note("%s: left out, only %d samples (fewer than ten beyond the percentile)", t.name, len(t.xs))
			continue
		}
		rep.add(t.name, "ms", v, len(t.xs))
	}
}

// node is one durable wgrap-serve node on loopback with one tenant per
// venue, and the writer's client.
type node struct {
	reg    *tenant.Registry
	srv    *http.Server
	done   chan error
	url    string
	dir    string
	writer client.Client
	ids    []string
}

// startNode starts a fresh durable node and creates one tenant per venue:
// the serving workload's set-up.
func startNode(ctx context.Context, e *env) (*node, error) {
	dir, err := os.MkdirTemp(e.scratch, "node-")
	if err != nil {
		return nil, err
	}
	reg, err := serve.NewRegistry(dir)
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		reg.Close()
		return nil, err
	}
	n := &node{reg: reg, srv: &http.Server{Handler: serve.Handler(reg)}, done: make(chan error, 1),
		url: "http://" + ln.Addr().String(), dir: dir}
	go func() { n.done <- n.srv.Serve(ln) }()
	if n.writer, err = client.Open(n.url); err != nil {
		n.stop()
		return nil, err
	}
	for _, v := range e.in.venues {
		id := "bench-" + v.name
		if _, err := n.writer.CreateTenant(ctx, &wire.CreateRequest{ID: id, Instance: v.wire, Config: tenantConfig(v.track)}); err != nil {
			n.stop()
			return nil, fmt.Errorf("create tenant %s: %w", id, err)
		}
		n.ids = append(n.ids, id)
	}
	return n, nil
}

// stop shuts the node down, waits for it and removes its data.
func (n *node) stop() error {
	if n.writer != nil {
		n.writer.Close()
	}
	err := n.srv.Shutdown(context.Background())
	if serr := <-n.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if cerr := n.reg.Close(); err == nil {
		err = cerr
	}
	if rerr := os.RemoveAll(n.dir); err == nil {
		err = rerr
	}
	return err
}

func setupNode(ctx context.Context, e *env) (time.Duration, error) {
	t0 := time.Now()
	n, err := startNode(ctx, e)
	if err != nil {
		return 0, err
	}
	d := time.Since(t0)
	return d, n.stop()
}

// servePass sets up a fresh node, then replays every track through the
// writer while the reader reads views.
func servePass(ctx context.Context, e *env, tr *tracer, parent int) (*passStats, error) {
	ps := &passStats{layer: map[string][]float64{}}
	n, err := startNode(ctx, e)
	if err != nil {
		return nil, err
	}
	defer n.stop()
	writer, ids := n.writer, n.ids

	reader, err := client.Open(n.url)
	if err != nil {
		return nil, err
	}
	defer reader.Close()
	views := 0
	for _, v := range e.in.venues {
		views += countOps(v.track, track.OpView)
	}
	reads := make(chan readReq, views) // never blocks the writer
	readDone := make(chan readerStats, 1)
	go func() { readDone <- readViews(ctx, reader, reads) }()

	var written int64
	if tr != nil {
		if written, err = writeBytes(); err != nil {
			close(reads)
			<-readDone
			return nil, err
		}
	}
	start := time.Now()
	werr := func() error {
		for k, v := range e.in.venues {
			sp := tr.start("serve.replay."+v.name, parent)
			err := replayWriter(ctx, writer, ids[k], v.track, reads, ps, tr, sp)
			tr.finish(sp)
			if err != nil {
				return fmt.Errorf("%s: %w", v.name, err)
			}
		}
		return nil
	}()
	ps.wall = time.Since(start)
	close(reads)
	rs := <-readDone
	if werr != nil {
		return nil, werr
	}
	if tr != nil {
		after, err := writeBytes()
		if err != nil {
			return nil, err
		}
		ps.written = after - written
	}
	ps.lat.view, ps.lat.late = rs.latency, rs.late
	ps.attempted += rs.attempted
	ps.failed += rs.failed

	for _, id := range ids {
		st, err := writer.Status(ctx, id)
		if err != nil {
			return nil, err
		}
		v, err := writer.View(ctx, id)
		if err != nil {
			return nil, err
		}
		if v.Result == nil {
			return nil, fmt.Errorf("%s: no published result", id)
		}
		ps.finals = append(ps.finals, final{st.Seq, v.Result.Score})
		ps.coverage = append(ps.coverage, coverage{v.Result.AverageCoverage, v.Result.LowestCoverage})
	}
	ps.heapMB = liveHeapMB()
	return ps, nil
}

// replayWriter is the closed-loop writer: it sends the track's ops one after
// another, each when the previous one has completed. Sleeps are skipped. A
// view op is handed to the reader, due now, and the writer goes on without
// waiting for it.
func replayWriter(ctx context.Context, c client.Client, id string, t *track.Track, reads chan<- readReq, ps *passStats, tr *tracer, parent int) error {
	for i, op := range t.Ops {
		t0 := time.Now()
		var err error
		switch op.Kind {
		case track.OpPhase, track.OpSleep:
			continue
		case track.OpView:
			reads <- readReq{id, t0}
			continue
		case track.OpSolve:
			sp := tr.start("client.solve", parent)
			_, err = c.Solve(ctx, id)
			tr.finish(sp)
		case track.OpResolve:
			sp := tr.start("client.resolve", parent)
			_, err = c.Resolve(ctx, id)
			tr.finish(sp)
			ps.lat.resolve = append(ps.lat.resolve, ms(time.Since(t0)))
		case track.OpResolveAsync:
			sp := tr.start("client.resolve_async", parent)
			err = awaitTicket(ctx, c, id)
			tr.finish(sp)
			ps.lat.resolve = append(ps.lat.resolve, ms(time.Since(t0)))
		default:
			sp := tr.start("client.edit", parent)
			_, err = c.Edit(ctx, id, wireEdit(op))
			tr.finish(sp)
			ps.lat.edit = append(ps.lat.edit, ms(time.Since(t0)))
		}
		ps.attempted++
		if err != nil {
			// Tracks are accepted by construction: any refusal is a failure.
			ps.failed++
			return fmt.Errorf("op %d %s: %w", i, op.Kind, err)
		}
	}
	return nil
}

// awaitTicket issues an async re-solve and polls its ticket until done.
func awaitTicket(ctx context.Context, c client.Client, id string) error {
	token, err := c.ResolveAsync(ctx, id)
	if err != nil {
		return err
	}
	for {
		st, err := c.Ticket(ctx, id, token)
		if err != nil {
			return err
		}
		if st.Done {
			if st.Error != nil {
				return errors.New(st.Error.Message)
			}
			return nil
		}
		select {
		case <-time.After(200 * time.Microsecond):
		case <-ctx.Done():
			return ctx.Err()
		}
	}
}

func wireEdit(op track.Op) wire.Edit {
	e := wire.Edit{Workload: op.Workload, Reviewer: op.Reviewer, R: op.R, P: op.P}
	switch op.Kind {
	case track.OpAddConflict:
		e.Op = wire.OpAddConflict
	case track.OpWithdraw:
		e.Op = wire.OpWithdraw
	case track.OpRestore:
		e.Op = wire.OpRestore
	case track.OpAddReviewer:
		e.Op = wire.OpAddReviewer
	case track.OpSetWorkload:
		e.Op = wire.OpSetWorkload
	}
	return e
}

func countOps(t *track.Track, kind string) int {
	n := 0
	for _, op := range t.Ops {
		if op.Kind == kind {
			n++
		}
	}
	return n
}

// readReq is one view read the writer handed to the reader: the tenant and
// when the track has it due.
type readReq struct {
	id  string
	due time.Time
}

// readerStats is what the reader measured.
type readerStats struct {
	latency, late     []float64 // ms
	attempted, failed int
}

// readViews is the open-loop reader. It sends the tracks' view reads in
// order, each as soon as it is due and the previous read has returned, until
// the writer closes reads. The writer never waits for a read, so the reads
// arrive at the tracks' own places in the op stream whatever the reader
// does. Each read is timed from its due time, so a read that waits behind a
// slow one is charged for the wait, and the wait itself is recorded as
// lateness.
func readViews(ctx context.Context, c client.Client, reads <-chan readReq) readerStats {
	var rs readerStats
	for r := range reads {
		sent := time.Now()
		_, err := c.View(ctx, r.id)
		rs.attempted++
		if err != nil {
			rs.failed++
			continue
		}
		rs.latency = append(rs.latency, ms(time.Since(r.due)))
		rs.late = append(rs.late, ms(sent.Sub(r.due)))
	}
	return rs
}

// writeBytes is the bytes this process has caused to be written to storage
// (write_bytes of /proc/self/io). The kernel counts a page when it is
// dirtied, so a page rewritten after each fsync counts once per fsync.
func writeBytes() (int64, error) {
	data, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "write_bytes:"); ok {
			return strconv.ParseInt(strings.TrimSpace(v), 10, 64)
		}
	}
	return 0, errors.New("/proc/self/io has no write_bytes")
}
