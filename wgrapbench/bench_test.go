package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// benchmarkJSON is the repository's BENCHMARK.json, one directory up.
type benchmarkJSON struct {
	Workloads []struct{ Name, Why string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// nameRE is the form every metric and workload name must take.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func TestMetricNames(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, nameRE)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}
	for _, w := range workloads {
		if !nameRE.MatchString(w.name) {
			t.Errorf("workload name %q does not match %s", w.name, nameRE)
		}
	}
}

// TestBenchmarkJSONMatches keeps BENCHMARK.json and the metric tables in
// step: same names, units and order, and the same workloads.
func TestBenchmarkJSONMatches(t *testing.T) {
	b := readBenchmarkJSON(t)
	if len(b.EndToEnd) != len(endToEnd) || len(b.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json lists %d end-to-end and %d per-layer metrics, the benchmark %d and %d",
			len(b.EndToEnd), len(b.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, m := range b.EndToEnd {
		if m.Name != endToEnd[i].name || m.Unit != endToEnd[i].unit {
			t.Errorf("end_to_end[%d] = %s/%s, benchmark prints %s/%s", i, m.Name, m.Unit, endToEnd[i].name, endToEnd[i].unit)
		}
	}
	for i, m := range b.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per_layer[%d] = %s/%s, benchmark prints %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d = %s, benchmark has %s", i, w.Name, workloads[i].name)
		}
	}
}

// runTiny runs one workload at the tiny size and parses its result line.
func runTiny(t *testing.T, root, workload, seed, trace string) (map[string]json.RawMessage, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run([]string{"-workload", workload, "-seed", seed, "-seconds", "0.05", "-trace", trace,
		"-size", "tiny", "-root", root}, &out, &errw)
	if code != 0 {
		t.Fatalf("%s trace %s: exit %d\n%s%s", workload, trace, code, out.String(), errw.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line is not the result: %v\n%s", err, out.String())
	}
	return res, out.String()
}

func TestTinyRunEmitsEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				root := t.TempDir()
				res, out := runTiny(t, root, w.name, "0", trace)
				if len(res) != 4 {
					t.Fatalf("result has keys %v, want correct, attempted, failed, metrics", keys(res))
				}
				var correct bool
				var attempted, failed int
				var metrics map[string]struct {
					Value float64
					Unit  string
				}
				for k, dst := range map[string]any{"correct": &correct, "attempted": &attempted, "failed": &failed, "metrics": &metrics} {
					if err := json.Unmarshal(res[k], dst); err != nil {
						t.Fatalf("%s: %v", k, err)
					}
				}
				if !correct || failed != 0 || attempted < 1 {
					t.Fatalf("correct=%v attempted=%d failed=%d\n%s", correct, attempted, failed, out)
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(metrics) != len(want) {
					t.Errorf("got %d metrics, want %d", len(metrics), len(want))
				}
				for _, d := range want {
					m, ok := metrics[d.name]
					if !ok {
						t.Errorf("metric %s missing", d.name)
						continue
					}
					if m.Unit != d.unit {
						t.Errorf("metric %s unit %q, want %q", d.name, m.Unit, d.unit)
					}
				}
				if trace == "0" && metrics["pass_s"].Value <= 0 {
					t.Errorf("pass_s = %v, want > 0", metrics["pass_s"].Value)
				}
			})
		}
	}
}

// TestTracedSpansNest checks the traced run's span tree: every span lies
// within its parent's interval and was closed.
func TestTracedSpansNest(t *testing.T) {
	root := t.TempDir()
	runTiny(t, root, serveReplay.name, "0", "1")
	data, err := os.ReadFile(filepath.Join(root, ".bench_build", "traces", serveReplay.name+"-seed0.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for i, s := range spans {
		names[s.Name] = true
		if s.ID != i+1 {
			t.Fatalf("span %d has id %d", i, s.ID)
		}
		if s.End < s.Start {
			t.Errorf("span %s (%d) not closed or ends before it starts", s.Name, s.ID)
		}
		if s.Parent == 0 {
			continue
		}
		if s.Parent >= s.ID {
			t.Errorf("span %s (%d) has a later parent %d", s.Name, s.ID, s.Parent)
			continue
		}
		p := spans[s.Parent-1]
		if s.Start < p.Start || s.End > p.End {
			t.Errorf("span %s [%v,%v] lies outside its parent %s [%v,%v]", s.Name, s.Start, s.End, p.Name, p.Start, p.End)
		}
	}
	for _, n := range []string{"engine.fill", "flow.solve", "cra.sdga", "cra.sra_round", "wgrap.construct",
		"topics.index", "flow.solve_sparse", "durable.append_sync", "serve.view_handler", "client.edit"} {
		if !names[n] {
			t.Errorf("no %s span recorded", n)
		}
	}
}

// TestHeldOutSeed runs the held-out path: generated tracks and a generated
// large pool must pass every correctness check, and the inputs must be a
// function of the seed.
func TestHeldOutSeed(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			root := t.TempDir()
			_, a := runTiny(t, root, w.name, "7", "0")
			_, b := runTiny(t, root, w.name, "7", "0")
			if ha, hb := inputLines(a), inputLines(b); ha != hb || ha == "" {
				t.Errorf("seed 7 input hashes differ between runs:\n%s\n%s", ha, hb)
			}
			_, c := runTiny(t, root, w.name, "8", "0")
			if w != assignPaper && inputLines(a) == inputLines(c) {
				t.Errorf("seeds 7 and 8 built identical inputs")
			}
		})
	}
}

func TestBadWorkloadFails(t *testing.T) {
	var out, errw bytes.Buffer
	if code := run([]string{"-workload", "nope", "-root", t.TempDir()}, &out, &errw); code == 0 {
		t.Fatal("unknown workload exited 0")
	}
	if out.Len() != 0 {
		t.Fatalf("unknown workload printed a result: %s", out.String())
	}
}

func TestCommittedInputsNeeded(t *testing.T) {
	// Outside a checkout the committed tracks are missing: the run must fail
	// without printing a result.
	var out, errw bytes.Buffer
	code := run([]string{"-workload", serveReplay.name, "-seed", "0", "-seconds", "0.05", "-root", t.TempDir()}, &out, &errw)
	if code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, out.String())
	}
}

func inputLines(out string) string {
	var b strings.Builder
	for _, l := range strings.Split(out, "\n") {
		if strings.HasPrefix(l, "input ") {
			b.WriteString(l + "\n")
		}
	}
	return b.String()
}

func keys(m map[string]json.RawMessage) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}
