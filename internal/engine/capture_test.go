package engine_test

// Captures of real programs: every state the algorithm catalog writes must
// survive the byte format a checkpoint keeps it in, and the parser a restore
// runs must hold against whatever a disk hands it.

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"

	"graphite/internal/algorithms"
	"graphite/internal/codec"
	"graphite/internal/core"
	"graphite/internal/engine"
	"graphite/internal/gen"
	"graphite/internal/tgraph"
)

// hookMaster runs fn once, at the barrier before superstep at, then hands
// control to the program's own master, if it has one.
type hookMaster struct {
	at    int
	fn    func(mc *engine.MasterControl)
	inner engine.Master
}

func (m *hookMaster) BeforeSuperstep(mc *engine.MasterControl) {
	if m.fn != nil && mc.Superstep() == m.at {
		fn := m.fn
		m.fn = nil
		fn(mc)
	}
	if m.inner != nil {
		m.inner.BeforeSuperstep(mc)
	}
}

// captureGraph is the golden matrix's first graph and parameters.
func captureGraph(t testing.TB) (*tgraph.Graph, algorithms.Params) {
	t.Helper()
	g, err := gen.Generate(gen.TwitterLike(0.02), 7)
	if err != nil {
		t.Fatal(err)
	}
	e := g.Edge(0)
	return g, algorithms.Params{Source: e.Src, Target: e.Dst, Iterations: 4}
}

// program builds a catalog algorithm, or FFM, to run on workers workers with
// hook as its master.
func program(t testing.TB, g *tgraph.Graph, name string, p algorithms.Params, workers int, hook *hookMaster) (core.Program, core.Options) {
	t.Helper()
	var prog core.Program
	var opts core.Options
	if name == "ffm" {
		a := &algorithms.FFM{}
		prog, opts = a, a.Options()
	} else {
		var err error
		if prog, opts, err = algorithms.New(g, name, p); err != nil {
			t.Fatal(err)
		}
	}
	opts.NumWorkers = workers
	if hook != nil {
		hook.inner, opts.Master = opts.Master, hook
	}
	return prog, opts
}

// TestEveryStateCaptures captures every worker of a Run of every catalog
// algorithm, and of FFM, at a barrier halfway through, with the barrier's
// state, and rolls a fresh engine back to it: the fresh engine must capture the same bytes straight back and finish
// in the states of the run the checkpoint came from. The four programs whose
// states are no payload value — LCC, TC, FFM, SCC — encode them with their
// core.StateCoder.
func TestEveryStateCaptures(t *testing.T) {
	g, p := captureGraph(t)
	for _, name := range append(algorithms.Names(), "ffm") {
		t.Run(name, func(t *testing.T) {
			prog, opts := program(t, g, name, p, 3, nil)
			plain, err := core.Run(g, prog, opts)
			if err != nil {
				t.Fatal(err)
			}
			at := 1 + plain.Metrics.Supersteps/2

			var ckpt engine.Checkpoint
			var ckptErr error
			prog, opts = program(t, g, name, p, 3, &hookMaster{at: at, fn: func(mc *engine.MasterControl) {
				ckpt, ckptErr = mc.Checkpoint()
			}})
			from, err := core.Run(g, prog, opts)
			if err != nil || ckptErr != nil {
				t.Fatalf("run: %v; checkpoint: %v", err, ckptErr)
			}

			prog, opts = program(t, g, name, p, 3, &hookMaster{at: 1, fn: func(mc *engine.MasterControl) {
				if err := mc.Rewind(ckpt); err != nil {
					t.Fatalf("rewind to superstep %d: %v", at, err)
				}
				again, err := mc.Capture()
				if err != nil || !bytes.Equal(again, ckpt.Bytes()) {
					t.Fatalf("re-capture after the rewind: %d bytes, error %v; want the %d bytes restored", len(again), err, len(ckpt.Bytes()))
				}
			}})
			resumed, err := core.Run(g, prog, opts)
			if err != nil {
				t.Fatalf("resumed run: %v", err)
			}
			for i := 0; i < g.NumVertices(); i++ {
				if !reflect.DeepEqual(from.State(i), resumed.State(i)) || !reflect.DeepEqual(plain.State(i), from.State(i)) {
					t.Fatalf("vertex %d: resumed from superstep %d: %v; uninterrupted: %v", i, at, resumed.State(i), from.State(i))
				}
			}
			if from.Stats != resumed.Stats {
				t.Errorf("stats: resumed %+v, uninterrupted %+v", resumed.Stats, from.Stats)
			}
		})
	}
}

// goldenCaptures reads the durable captures the golden matrix recorded — two
// shards of the first graph per algorithm that ran long enough to take one —
// with the algorithm each belongs to.
func goldenCaptures(t testing.TB) (names []string, ckpts [][]byte) {
	t.Helper()
	data, err := os.ReadFile("../algorithms/testdata/golden_ckpt.bin")
	if err != nil {
		t.Fatal(err)
	}
	lines, err := os.ReadFile("../algorithms/testdata/golden_messages.txt")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range algorithms.Names() {
		key := fmt.Sprintf("\ntwitter %s 2 stepped ", name)
		i := strings.Index(string(lines), key)
		line, _, _ := strings.Cut(string(lines[i+1:]), "\n")
		if strings.HasSuffix(line, "ckpt=-") {
			continue
		}
		for range 2 {
			n, k := binary.Uvarint(data)
			if k <= 0 || uint64(len(data)-k) < n {
				t.Fatal("golden checkpoint file truncated")
			}
			names, ckpts = append(names, name), append(ckpts, data[k:k+int(n)])
			data = data[k+int(n):]
		}
	}
	return names, ckpts
}

// FuzzRestoreDurable hands the capture parser — the first thing a
// replacement worker reads off disk — mutations of the golden matrix's
// durable captures and of one Run capture of two workers, restored into the
// shard or the whole engine they came from. Bytes either restore or fail
// with an error wrapping engine.ErrCheckpointCorrupt or codec.ErrCorrupt,
// never panic, and a failed restore leaves the capture as it was; what a
// shard restores, it captures to bytes that restore to themselves.
func FuzzRestoreDurable(f *testing.F) {
	g, p := captureGraph(f)
	names := algorithms.Names()
	index := map[string]uint8{}
	for i, n := range names {
		index[n] = uint8(i)
	}
	seeds, ckpts := goldenCaptures(f)
	for i, c := range ckpts {
		f.Add(c, index[seeds[i]], uint8(i%2))
	}
	var whole []byte
	prog, opts := program(f, g, "sssp", p, 2, &hookMaster{at: 3, fn: func(mc *engine.MasterControl) {
		var err error
		if whole, err = mc.Capture(); err != nil {
			f.Fatal(err)
		}
	}})
	if _, err := core.Run(g, prog, opts); err != nil || whole == nil {
		f.Fatalf("run: %v (captured %d bytes)", err, len(whole))
	}
	f.Add(whole, index["sssp"], uint8(2))

	typed := func(t *testing.T, err error) {
		if err != nil && !errors.Is(err, engine.ErrCheckpointCorrupt) && !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("restore failed with an untyped error: %v", err)
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, algo, which uint8) {
		name := names[int(algo)%len(names)]
		if shard := int(which % 3); shard < 2 {
			prog, opts := program(t, g, name, p, 2, nil)
			s, err := core.NewShard(g, prog, opts, shard)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Init(); err != nil {
				t.Fatal(err)
			}
			before, err := s.CaptureDurable()
			if err != nil {
				t.Fatal(err)
			}
			if err := s.RestoreDurable(data); err != nil {
				typed(t, err)
				if after, err := s.CaptureDurable(); err != nil || !bytes.Equal(after, before) {
					t.Fatalf("a failed restore changed the shard: re-capture error %v", err)
				}
				return
			}
			// What restored captures to bytes that restore to themselves.
			again, err := s.CaptureDurable()
			if err != nil {
				t.Fatalf("re-capture of a restored shard: %v", err)
			}
			if err := s.RestoreDurable(again); err != nil {
				t.Fatalf("a shard's own capture does not restore: %v", err)
			}
			if fixed, err := s.CaptureDurable(); err != nil || !bytes.Equal(fixed, again) {
				t.Fatalf("capture is not a fixed point (error %v)", err)
			}
			return
		}
		prog, opts := program(t, g, name, p, 2, &hookMaster{at: 1, fn: func(mc *engine.MasterControl) {
			defer mc.Halt()
			before, err := mc.Capture()
			if err != nil {
				t.Fatal(err)
			}
			if err := mc.Restore(data); err != nil {
				typed(t, err)
				if after, err := mc.Capture(); err != nil || !bytes.Equal(after, before) {
					t.Fatalf("a failed restore changed the engine: re-capture error %v", err)
				}
			}
		}})
		if _, err := core.Run(g, prog, opts); err != nil {
			t.Fatal(err)
		}
	})
}
