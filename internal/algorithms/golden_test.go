package algorithms_test

// Bit-identity with a recorded commit. Every cell of the matrix — the 12
// catalog algorithms × three generated graphs × 1, 2 and 3 workers × the three
// ways a superstep is driven (Engine.Run, the stepped core.Shard loop a
// cluster worker runs, Engine.Run over the loopback TCP mesh with every
// payload round-tripped through its codec) — is reduced to one line: the
// counts the paper reasons with, a hash of the rendered result, a hash of
// every cross-shard batch in order, and a hash of one durable checkpoint per
// shard. All three drivers deliver through one receive routine, so a cell's
// three lines agree on every count and the result. testdata/golden_messages.txt
// holds the lines as the parent of the change that made messages pointer-free
// wrote them — but for LCC's and TC's stepped cells, recorded when their
// states became encodable, SCC's, recorded when its shards could close
// supersteps through a barrier with a master, and the in-process PR, LCC and
// TC cells at 2 and 3 workers, recorded when Run's in-process exchange took
// the transported delivery order, and the combining algorithms' cells at 2 and
// 3 workers, recorded when each sender began folding its outbox: their
// stepped batches carry fewer messages, and PageRank's float sums associate
// per source first, which moves its results, batches and checkpoints but no
// count (go test -run Golden -update rewrites it);
// testdata/golden_ckpt.bin holds checkpoints those commits wrote, which this
// one must restore and finish from.

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"graphite/internal/algorithms"
	"graphite/internal/codec"
	"graphite/internal/core"
	"graphite/internal/engine"
	"graphite/internal/gen"
	"graphite/internal/serve"
	"graphite/internal/tgraph"
)

var update = flag.Bool("update", false, "rewrite testdata/golden_messages.txt and golden_ckpt.bin from this tree")

const (
	goldenLines = "testdata/golden_messages.txt"
	goldenCkpts = "testdata/golden_ckpt.bin"
	// goldenCkptStep is the superstep a cell's checkpoint is taken before.
	goldenCkptStep = 3
)

type goldenGraph struct {
	name string
	g    *tgraph.Graph
	p    algorithms.Params
}

func goldenGraphs(t testing.TB) []goldenGraph {
	t.Helper()
	var out []goldenGraph
	for _, prof := range []gen.Profile{gen.TwitterLike(0.02), gen.MAGLike(0.02), gen.SkewedLike(0.05)} {
		g, err := gen.Generate(prof, 7)
		if err != nil {
			t.Fatal(err)
		}
		// The endpoints of the first edge: a traversal with somewhere to go.
		e := g.Edge(0)
		out = append(out, goldenGraph{prof.Name, g, algorithms.Params{Source: e.Src, Target: e.Dst, Iterations: 4}})
	}
	return out
}

func shortHash(parts ...[]byte) string {
	h := sha256.New()
	for _, p := range parts {
		var n [8]byte
		binary.BigEndian.PutUint64(n[:], uint64(len(p)))
		h.Write(n[:])
		h.Write(p)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:10])
}

// cellLine renders what a run must repeat. batches and ckpts are "-" for the
// drivers that have none to show.
func cellLine(r *core.Result, batches, ckpts string) string {
	m, s := r.Metrics, r.Stats
	return fmt.Sprintf("msgs=%d bytes=%d compute=%d scatter=%d steps=%d warp=%d suppressed=%d active=%d updates=%d result=%s batches=%s ckpt=%s",
		m.Messages, m.MessageBytes, m.ComputeCalls, m.ScatterCalls, m.Supersteps,
		s.WarpCalls, s.WarpSuppressed, s.ActiveIntervals, s.StateUpdates,
		resultHash(r), batches, ckpts)
}

// resultHash hashes the result as served.
func resultHash(r *core.Result) string {
	return shortHash([]byte(strings.Join(serve.FormatResult(r, 0), "\n")))
}

func goldenEngine(gg goldenGraph, algo string, workers int, tcp bool) (string, error) {
	prog, opts, err := algorithms.New(gg.g, algo, gg.p)
	if err != nil {
		return "", err
	}
	opts.NumWorkers = workers
	if tcp {
		tp, err := engine.NewTCPTransport(workers)
		if err != nil {
			return "", err
		}
		defer tp.Close()
		opts.Transport = tp
	}
	r, err := core.Run(gg.g, prog, opts)
	if err != nil {
		return "", err
	}
	// Not in the recorded line (the recorded commit had no spill table): the
	// ten programs whose messages are int64s, float64s and pairs never touch
	// it, LCC's and TC's slices always do.
	if slices := algo == "lcc" || algo == "tc"; slices != (r.Metrics.Spilled > 0) || r.Metrics.Spilled > r.Metrics.Messages {
		return "", fmt.Errorf("%d of %d messages spilled", r.Metrics.Spilled, r.Metrics.Messages)
	}
	return cellLine(r, "-", "-"), nil
}

// steppedShards builds the shards of one stepped run and the barrier that
// closes its supersteps, and returns them with the codec its states travel
// in.
func steppedShards(gg goldenGraph, algo string, workers int) ([]*core.Shard, *engine.Barrier, codec.Payload, error) {
	shards := make([]*core.Shard, workers)
	var opts core.Options
	var pc codec.Payload
	for i := range shards {
		prog, o, err := algorithms.New(gg.g, algo, gg.p)
		if err != nil {
			return nil, nil, nil, err
		}
		o.NumWorkers = workers
		if shards[i], err = core.NewShard(gg.g, prog, o, i); err != nil {
			return nil, nil, nil, err
		}
		opts, pc = o, core.StateCodecOf(prog, o)
	}
	b, err := core.NewBarrier(opts, 0)
	return shards, b, pc, err
}

// stepShards drives shards from their current superstep to the end through
// b, the way cluster workers and their coordinator do. It returns the run's
// result, with b's metrics, every cross-shard batch in (superstep, source,
// destination) order, and the durable capture of each shard taken before
// superstep ckptAt (nil when the run ends sooner) with the barrier's state at
// that point — the coordinator's half of a checkpoint generation.
func stepShards(g *tgraph.Graph, shards []*core.Shard, b *engine.Barrier, pc codec.Payload, ckptAt int) (*core.Result, [][]byte, [][]byte, engine.BarrierState, error) {
	n := len(shards)
	var batches, ckpts [][]byte
	var ctl engine.BarrierState
	fail := func(err error) (*core.Result, [][]byte, [][]byte, engine.BarrierState, error) {
		return nil, nil, nil, ctl, err
	}
	for step := shards[0].Superstep(); b.Open(step); step++ {
		outs := make([][][]byte, n)
		for i, s := range shards {
			s.SetPhase(b.Phase())
			if err := s.Compute(); err != nil {
				return fail(err)
			}
			var err error
			if outs[i], err = s.Outbound(); err != nil {
				return fail(err)
			}
			for d, batch := range outs[i] {
				if d != i {
					batches = append(batches, bytes.Clone(batch))
				}
			}
		}
		for d, s := range shards {
			var in [][]byte
			for src := range shards {
				if src != d {
					in = append(in, outs[src][d])
				}
			}
			if _, err := s.Deliver(in); err != nil {
				return fail(err)
			}
		}
		reps := make([]engine.StepReport, n)
		for i, s := range shards {
			reps[i] = s.Barrier()
		}
		quiesced := b.Close(reps)
		if step+1 == ckptAt {
			for _, s := range shards {
				data, err := s.CaptureDurable()
				if err != nil {
					return fail(err)
				}
				ckpts = append(ckpts, data)
			}
			ctl = b.State()
		}
		if quiesced {
			break
		}
	}
	blobs := make([][]byte, n)
	for i, s := range shards {
		var err error
		if blobs[i], err = s.EncodeOwnedStates(); err != nil {
			return fail(err)
		}
	}
	r, err := core.AssembleResult(g, pc, blobs, b.Metrics())
	return r, batches, ckpts, ctl, err
}

// goldenStepped runs one stepped cell and returns its line, the captures
// taken before goldenCkptStep and the barrier's state beside them.
func goldenStepped(gg goldenGraph, algo string, workers int) (string, [][]byte, engine.BarrierState, error) {
	var ctl engine.BarrierState
	shards, b, pc, err := steppedShards(gg, algo, workers)
	if err != nil {
		return "", nil, ctl, err
	}
	for _, s := range shards {
		defer s.Close()
		if err := s.Init(); err != nil {
			return "", nil, ctl, err
		}
	}
	r, batches, ckpts, ctl, err := stepShards(gg.g, shards, b, pc, goldenCkptStep)
	if err != nil {
		return "", nil, ctl, err
	}
	ck := "-"
	if ckpts != nil {
		ck = shortHash(ckpts...)
	}
	bh := shortHash(batches...)
	if algo == "lcc" {
		// LCC sends its replies in map order: the bytes of a batch are the same
		// from run to run, their order is not.
		bh = fmt.Sprintf("%dB", len(bytes.Join(batches, nil)))
	}
	return cellLine(r, bh, ck), ckpts, ctl, nil
}

// ckptCell reports whether a cell's checkpoints are kept as bytes, not only
// as a hash: every algorithm once, two shards, on the first graph.
func ckptCell(graph int, workers int) bool { return graph == 0 && workers == 2 }

func TestGoldenMessages(t *testing.T) {
	var got []string
	var ckptFile []byte
	graphs := goldenGraphs(t)
	for gi, gg := range graphs {
		for _, algo := range algorithms.Names() {
			for workers := 1; workers <= 3; workers++ {
				add := func(driver, line string, err error) {
					if err != nil {
						t.Fatalf("%s/%s/%d/%s: %v", gg.name, algo, workers, driver, err)
					}
					got = append(got, fmt.Sprintf("%s %s %d %s %s", gg.name, algo, workers, driver, line))
				}
				inproc, err := goldenEngine(gg, algo, workers, false)
				add("engine", inproc, err)
				stepped, ckpts, _, err := goldenStepped(gg, algo, workers)
				add("stepped", stepped, err)
				tcp, err := goldenEngine(gg, algo, workers, true)
				add("tcp", tcp, err)
				// Every driver delivers through one receive routine in one
				// order and closes supersteps through one barrier: every count
				// and the result agree (only a stepped line shows batches and
				// checkpoints).
				if inproc != tcp {
					t.Errorf("%s/%s/%d: engine and tcp cells disagree\n  engine %s\n  tcp    %s", gg.name, algo, workers, inproc, tcp)
				}
				if s, _, _ := strings.Cut(stepped, " batches="); !strings.HasPrefix(tcp, s+" batches=") {
					t.Errorf("%s/%s/%d: stepped and tcp cells disagree\n  stepped %s\n  tcp     %s", gg.name, algo, workers, stepped, tcp)
				}
				if ckptCell(gi, workers) {
					for _, c := range ckpts {
						ckptFile = binary.AppendUvarint(ckptFile, uint64(len(c)))
						ckptFile = append(ckptFile, c...)
					}
				}
			}
		}
	}
	text := strings.Join(got, "\n") + "\n"
	if *update {
		if err := os.MkdirAll(filepath.Dir(goldenLines), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenLines, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(goldenCkpts, ckptFile, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(goldenLines)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("matrix has %d cells, the golden file %d", len(got), len(wantLines))
	}
	bad := 0
	for i := range got {
		if got[i] != wantLines[i] {
			if bad++; bad <= 10 {
				t.Errorf("cell differs from the recorded run\n  got  %s\n  want %s", got[i], wantLines[i])
			}
		}
	}
	if bad > 10 {
		t.Errorf("... and %d more cells", bad-10)
	}
	recorded, err := os.ReadFile(goldenCkpts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(recorded, ckptFile) {
		t.Errorf("durable checkpoints differ from the recorded ones (%d bytes, recorded %d)", len(ckptFile), len(recorded))
	}
}

// TestGoldenCheckpointRestores restores the checkpoints the recorded commit
// wrote into fresh shards of this one and finishes the run from them: the
// result, and every count, is the recorded run's. A generation's barrier
// state belongs to whoever steps the shards, not to any shard's capture, so
// it is restored beside them — SCC's master decides from its phase, and the
// run's totals go on from its ledger.
func TestGoldenCheckpointRestores(t *testing.T) {
	data, err := os.ReadFile(goldenCkpts)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(goldenLines)
	if err != nil {
		t.Fatal(err)
	}
	// What a resumed run repeats of its recorded line: the counts, the stats
	// and the result, keyed by graph, algorithm, workers and driver.
	recorded := map[string]string{}
	for _, l := range strings.Split(strings.TrimSuffix(string(want), "\n"), "\n") {
		head, _, _ := strings.Cut(l, " batches=")
		f := strings.Fields(head)
		recorded[strings.Join(f[:4], " ")] = strings.Join(f[4:], " ")
	}
	gg := goldenGraphs(t)[0]
	const workers = 2
	restored := 0
	for _, algo := range algorithms.Names() {
		key := fmt.Sprintf("%s %s %d stepped", gg.name, algo, workers)
		line, ok := recorded[key]
		if !ok || !hasCkpt(string(want), key) {
			continue
		}
		_, _, ctl, err := goldenStepped(gg, algo, workers)
		if err != nil {
			t.Fatal(err)
		}
		shards, b, pc, err := steppedShards(gg, algo, workers)
		if err != nil {
			t.Fatal(err)
		}
		b.SetState(ctl)
		for _, s := range shards {
			defer s.Close()
			if err := s.Init(); err != nil {
				t.Fatal(err)
			}
			n, k := binary.Uvarint(data)
			if k <= 0 || uint64(len(data)-k) < n {
				t.Fatalf("%s: checkpoint file truncated", key)
			}
			if err := s.RestoreDurable(data[k : k+int(n)]); err != nil {
				t.Fatalf("%s: restore: %v", key, err)
			}
			data = data[k+int(n):]
		}
		r, _, _, _, err := stepShards(gg.g, shards, b, pc, 0)
		if err != nil {
			t.Fatalf("%s: %v", key, err)
		}
		if got, _, _ := strings.Cut(cellLine(r, "-", "-"), " batches="); got != line {
			t.Errorf("%s: resumed from the recorded checkpoint:\n  got      %s\n  recorded %s", key, got, line)
		}
		restored++
	}
	if len(data) != 0 {
		t.Errorf("%d bytes of checkpoints left over", len(data))
	}
	if restored < len(algorithms.Names()) {
		t.Errorf("only %d algorithms were resumed from a recorded checkpoint", restored)
	}
}

// hasCkpt reports whether the golden line starting with key recorded a
// checkpoint (a run that ended before goldenCkptStep has none).
func hasCkpt(golden, key string) bool {
	for _, l := range strings.Split(golden, "\n") {
		if strings.HasPrefix(l, key+" ") {
			return !strings.HasSuffix(l, "ckpt=-")
		}
	}
	return false
}
