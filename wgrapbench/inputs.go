package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"sort"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/track"
	"repro/internal/wire"
)

// venueSpec is one of the paper's three evaluation venues and the committed
// serving track that runs over it.
type venueSpec struct {
	name       string
	area       corpus.Area
	year       int
	trackFile  string // under testdata/tracks/, replayed verbatim at seed 0
	scenario   string // track.Generate scenario for held-out seeds
	edits      int    // track.GenConfig.Edits for held-out seeds
	corpusSeed int64  // corpus seed of the committed track
}

// venueSpecs are the paper's venues: DB 2008 (617×105), DM 2009 (648×145)
// and Theory 2008 (281×228), as pinned by the committed tracks.
var venueSpecs = []venueSpec{
	{"db08", corpus.Databases, 2008, "deadline-rush-db08.json", "deadline-rush", 400, 1},
	{"kdd09", corpus.DataMining, 2009, "coi-storm-kdd09.json", "coi-storm", 360, 2},
	{"theory08", corpus.Theory, 2008, "withdrawal-wave-theory08.json", "withdrawal-wave", 320, 3},
}

// sizes scales every input; "paper" is the benchmark, "tiny" keeps the
// benchmark's own tests fast.
type sizes struct {
	corpusScale float64 // corpus.Config.Scale of the venues
	trackEdits  float64 // multiplier on venueSpec.edits
	largeP      int     // papers of the large pool
	largeR      int     // reviewers of the large pool
	largeT      int     // topics of the large pool
	candCap     int     // WithCandidateCap of assign-large
}

var sizeTable = map[string]sizes{
	"paper": {corpusScale: 1, trackEdits: 1, largeP: 20000, largeR: 40000, largeT: 40, candCap: 64},
	"tiny":  {corpusScale: 0.1, trackEdits: 0.1, largeP: 600, largeR: 1200, largeT: 12, candCap: 16},
}

// venue is one generated paper venue with its serving track.
type venue struct {
	name     string
	instance *core.Instance
	wire     *wire.Instance
	track    *track.Track // nil until tracks are loaded
}

// inputs holds everything a workload consumes. They are built once from the
// seed before any timing, and every input is hashed so two builds of the
// benchmark can be shown to replay identical bytes.
type inputs struct {
	seed   int64
	size   sizes
	root   string // checkout root (testdata/ lives here)
	venues []*venue
	large  *core.Instance
	// largeWire is the large pool's wire form, the set-up's starting point.
	largeWire *wire.Instance
	hashes    []inputHash
}

type inputHash struct {
	name string
	sum  string
}

func (in *inputs) record(name string, data []byte) {
	h := sha256.Sum256(data)
	in.hashes = append(in.hashes, inputHash{name, hex.EncodeToString(h[:])})
}

// committed reports whether the seed replays the committed inputs verbatim.
func (in *inputs) committed() bool { return in.seed == 0 && in.size == sizeTable["paper"] }

// trackSeed derives a held-out track's generator seed.
func (in *inputs) trackSeed(k int) int64 { return 1000*in.seed + int64(k) + 1 }

// loadVenues builds the three paper venues, and with withTracks their
// serving tracks: the committed files at seed 0, generated ones otherwise.
func (in *inputs) loadVenues(withTracks bool) error {
	for k, spec := range venueSpecs {
		v := &venue{name: spec.name}
		var ref *track.CorpusRef
		if withTracks && in.committed() {
			path := filepath.Join(in.root, "testdata", "tracks", spec.trackFile)
			data, err := os.ReadFile(path)
			if err != nil {
				return fmt.Errorf("committed track: %w", err)
			}
			t, err := track.Read(bytes.NewReader(data))
			if err != nil {
				return err
			}
			in.record("track/"+spec.trackFile, data)
			v.track = t
			ref = t.Corpus
		} else {
			ref = &track.CorpusRef{Area: string(spec.area), Year: spec.year, Scale: in.size.corpusScale,
				Seed: spec.corpusSeed, Authors: 400, GroupSize: 3}
		}
		// Materialize regenerates the venue exactly as a replay of a track
		// over ref does.
		probe := &track.Track{Format: track.FormatVersion, Name: spec.name, Corpus: ref,
			Ops: []track.Op{{Kind: track.OpSolve}}}
		w, err := probe.Materialize()
		if err != nil {
			return err
		}
		v.wire = w
		if v.instance, err = w.ToInstance(); err != nil {
			return err
		}
		in.record("venue/"+spec.name, instanceBytes(v.instance))
		if withTracks && v.track == nil {
			if v.track, err = in.generateTrack(k, ref, w); err != nil {
				return err
			}
		}
		in.venues = append(in.venues, v)
	}
	return nil
}

// generateTrack derives a held-out track with the same scenario and edit
// budget as the committed one over the same venue.
func (in *inputs) generateTrack(k int, ref *track.CorpusRef, w *wire.Instance) (*track.Track, error) {
	spec := venueSpecs[k]
	cfg := wire.TenantConfig{Method: "sdga", Seed: 1}
	ops, err := track.Generate(spec.scenario, w, track.GenConfig{
		Seed:   in.trackSeed(k),
		Edits:  int(math.Ceil(float64(spec.edits) * in.size.trackEdits)),
		Config: cfg,
	})
	if err != nil {
		return nil, fmt.Errorf("generating %s track: %w", spec.name, err)
	}
	t := &track.Track{Format: track.FormatVersion, Name: fmt.Sprintf("%s-%s-s%d", spec.scenario, spec.name, in.seed),
		Scenario: spec.scenario, Seed: in.trackSeed(k), Config: cfg, Corpus: ref, Ops: ops}
	var buf bytes.Buffer
	if err := t.Write(&buf); err != nil {
		return nil, err
	}
	in.record("track/"+t.Name, buf.Bytes())
	return t, nil
}

// loadLarge builds the Zipf-skewed large pool the way the repository's
// huge-scale benchmark does: hot topics carry most of the expertise mass, and
// the workload is one above the feasibility minimum. Seed 0 uses that
// benchmark's own generator seed; held-out seeds are offset so none of them
// draws the same pool.
func (in *inputs) loadLarge() error {
	s := in.size
	genSeed := 1000 + in.seed
	if in.seed == 0 {
		genSeed = 8
	}
	rng := rand.New(rand.NewSource(genSeed))
	weights := make([]float64, s.largeT)
	total := 0.0
	for j := range weights {
		weights[j] = math.Pow(float64(j+1), -1.0)
		total += weights[j]
	}
	zipfTopic := func() int {
		u := rng.Float64() * total
		for j, w := range weights {
			if u -= w; u < 0 {
				return j
			}
		}
		return s.largeT - 1
	}
	vec := func() core.Vector {
		v := make(core.Vector, s.largeT)
		for j := 0; j < 4; j++ {
			v[zipfTopic()] += rng.Float64() / float64(j+1)
		}
		return v.Normalized()
	}
	papers := make([]core.Paper, s.largeP)
	for i := range papers {
		papers[i] = core.Paper{Topics: vec()}
	}
	reviewers := make([]core.Reviewer, s.largeR)
	for i := range reviewers {
		reviewers[i] = core.Reviewer{Topics: vec()}
	}
	large := core.NewInstance(papers, reviewers, 3, 0)
	large.Workload = large.MinWorkload() + 1
	in.large = large
	in.record("large", instanceBytes(large))
	var err error
	in.largeWire, err = wire.FromInstance(large)
	return err
}

// instanceBytes is a canonical binary encoding of an instance for hashing.
func instanceBytes(in *core.Instance) []byte {
	var buf []byte
	put := func(v uint64) { buf = binary.LittleEndian.AppendUint64(buf, v) }
	put(uint64(in.NumPapers()))
	put(uint64(in.NumReviewers()))
	put(uint64(in.GroupSize))
	put(uint64(in.Workload))
	for _, p := range in.Papers {
		for _, x := range p.Topics {
			put(math.Float64bits(x))
		}
	}
	for _, r := range in.Reviewers {
		for _, x := range r.Topics {
			put(math.Float64bits(x))
		}
	}
	conflicts := in.Conflicts()
	sort.Slice(conflicts, func(i, j int) bool {
		a, b := conflicts[i], conflicts[j]
		return a.Reviewer < b.Reviewer || a.Reviewer == b.Reviewer && a.Paper < b.Paper
	})
	for _, c := range conflicts {
		put(uint64(c.Reviewer))
		put(uint64(c.Paper))
	}
	return buf
}
