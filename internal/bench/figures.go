package bench

import (
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/baseline/tgb"
	"graphite/internal/core"
	"graphite/internal/gen"
	"graphite/internal/stats"
	"graphite/internal/tgraph"
)

// --- Fig. 6(a): in-memory representation footprints ---

// Fig6aRow compares representation sizes for one dataset.
type Fig6aRow struct {
	Graph        string
	IntervalB    int64 // ICM's interval graph
	TransformedB int64 // TGB's path-transformed graph
	SnapshotB    int64 // MSB's largest single snapshot
	BatchB       int64 // Chlonos's largest batch (BatchSize snapshots)
}

// Fig6a measures the memory footprint of each platform's representation.
func Fig6a(cfg Config) ([]Fig6aRow, error) {
	ds, err := Datasets(cfg)
	if err != nil {
		return nil, err
	}
	var rows []Fig6aRow
	for _, d := range ds {
		g := d.Graph
		s := tgb.TransformPath(g, tgb.ChainFree, tgb.CostWeight, nil)
		snap := g.LargestSnapshotFootprint()
		rows = append(rows, Fig6aRow{
			Graph:        d.Profile.Name,
			IntervalB:    g.MemoryFootprint(),
			TransformedB: s.MemoryFootprint(),
			SnapshotB:    snap,
			BatchB:       snap * int64(cfg.BatchSize),
		})
	}
	return rows, nil
}

// RenderFig6a prints the footprint comparison.
func RenderFig6a(w io.Writer, rows []Fig6aRow) {
	fmt.Fprintln(w, "Fig. 6(a): in-memory representation footprint (bytes)")
	t := stats.Table{Header: []string{"Graph", "Interval(ICM)", "Transformed(TGB)", "Snapshot(MSB)", "Batch(CHL)", "TGB/ICM"}}
	for _, r := range rows {
		ratio := float64(r.TransformedB) / float64(r.IntervalB)
		t.Add(r.Graph, r.IntervalB, r.TransformedB, r.SnapshotB, r.BatchB, ratio)
	}
	t.Render(w)
}

// --- Fig. 6(b): warp-combiner ablation ---

// Fig6bRow is one algorithm's with/without-combiner comparison.
type Fig6bRow struct {
	Algo            Algo
	ComputeWith     time.Duration
	ComputeWithout  time.Duration
	MakespanWith    time.Duration
	MakespanWithout time.Duration
}

// Fig6b measures the inline warp combiner's benefit on a long-lifespan
// dataset (the paper uses MAG) for the combinable algorithms.
func Fig6b(cfg Config) ([]Fig6bRow, error) {
	g, err := gen.Generate(gen.MAGLike(cfg.Scale), cfg.Seed)
	if err != nil {
		return nil, err
	}
	source := g.VertexAt(0).ID
	var rows []Fig6bRow
	for _, al := range []Algo{BFS, WCC, PR, SSSP, EAT, RH, TMST} {
		with, err := bestOf(3, func() (*core.Result, error) { return runAblation(cfg, al, g, source, asShipped) })
		if err != nil {
			return nil, err
		}
		without, err := bestOf(3, func() (*core.Result, error) { return runAblation(cfg, al, g, source, noCombiner) })
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig6bRow{
			Algo:            al,
			ComputeWith:     time.Duration(with.Metrics.ComputeNS),
			ComputeWithout:  time.Duration(without.Metrics.ComputeNS),
			MakespanWith:    time.Duration(with.Metrics.MakespanNS),
			MakespanWithout: time.Duration(without.Metrics.MakespanNS),
		})
	}
	return rows, nil
}

// bestOf runs fn k times and keeps the fastest run — the standard defense
// against scheduler noise on small makespans.
func bestOf(k int, fn func() (*core.Result, error)) (*core.Result, error) {
	var best *core.Result
	for i := 0; i < k; i++ {
		r, err := fn()
		if err != nil {
			return nil, err
		}
		if best == nil || r.Metrics.MakespanNS < best.Metrics.MakespanNS {
			best = r
		}
	}
	return best, nil
}

// runAblation runs one catalog algorithm from source over g with ablate
// applied to its options: asShipped, noCombiner (Fig. 6(b)) or
// noSuppression (Fig. 6(c)).
func runAblation(cfg Config, al Algo, g *tgraph.Graph, source tgraph.VertexID, ablate func(*core.Options)) (*core.Result, error) {
	prog, opts, err := algorithms.New(g, strings.ToLower(string(al)), algorithms.Params{
		Source: source, Iterations: cfg.PRIterations,
	})
	if err != nil {
		return nil, fmt.Errorf("bench: %w", err)
	}
	opts.NumWorkers = cfg.Workers
	ablate(&opts)
	opts.Tracer = cfg.Tracer
	opts.Registry = cfg.Registry
	return core.Run(g, prog, opts)
}

func asShipped(*core.Options)       {}
func noCombiner(o *core.Options)    { o.DisableWarpCombiner = true }
func noSuppression(o *core.Options) { o.DisableSuppression = true }

// RenderFig6b prints the combiner ablation.
func RenderFig6b(w io.Writer, rows []Fig6bRow) {
	fmt.Fprintln(w, "Fig. 6(b): inline warp combiner on vs off (mag-like graph)")
	t := stats.Table{Header: []string{"Algo", "Compute+ with", "Compute+ without", "Makespan with", "Makespan without", "Speedup"}}
	for _, r := range rows {
		speedup := float64(r.MakespanWithout) / float64(r.MakespanWith)
		t.Add(string(r.Algo), r.ComputeWith.Round(time.Microsecond), r.ComputeWithout.Round(time.Microsecond),
			r.MakespanWith.Round(time.Microsecond), r.MakespanWithout.Round(time.Microsecond), speedup)
	}
	t.Render(w)
}

// --- Fig. 6(c): warp suppression ablation ---

// Fig6cRow is one algorithm's with/without-suppression comparison on the
// unit-lifespan dataset.
type Fig6cRow struct {
	Algo            Algo
	MakespanWith    time.Duration
	MakespanWithout time.Duration
	Suppressed      int64
}

// Fig6c measures automatic warp suppression on the gplus-like graph — the
// worst case for ICM, where everything is unit-length.
func Fig6c(cfg Config) ([]Fig6cRow, error) {
	// A larger instance of the unit-lifespan profile beats timing noise.
	g, err := gen.Generate(gen.GPlusLike(cfg.Scale*4), cfg.Seed)
	if err != nil {
		return nil, err
	}
	source := g.VertexAt(0).ID
	var rows []Fig6cRow
	for _, al := range []Algo{BFS, WCC, SSSP, EAT, RH} {
		with, err := bestOf(3, func() (*core.Result, error) { return runAblation(cfg, al, g, source, asShipped) })
		if err != nil {
			return nil, err
		}
		without, err := bestOf(3, func() (*core.Result, error) { return runAblation(cfg, al, g, source, noSuppression) })
		if err != nil {
			return nil, err
		}
		rows = append(rows, Fig6cRow{
			Algo:            al,
			MakespanWith:    time.Duration(with.Metrics.MakespanNS),
			MakespanWithout: time.Duration(without.Metrics.MakespanNS),
			Suppressed:      with.Stats.WarpSuppressed,
		})
	}
	return rows, nil
}

// RenderFig6c prints the suppression ablation.
func RenderFig6c(w io.Writer, rows []Fig6cRow) {
	fmt.Fprintln(w, "Fig. 6(c): automatic warp suppression on vs off (gplus-like graph, unit lifespans)")
	t := stats.Table{Header: []string{"Algo", "Makespan with", "Makespan without", "Speedup", "SuppressedVertices"}}
	for _, r := range rows {
		speedup := float64(r.MakespanWithout) / float64(r.MakespanWith)
		t.Add(string(r.Algo), r.MakespanWith.Round(time.Microsecond),
			r.MakespanWithout.Round(time.Microsecond), speedup, r.Suppressed)
	}
	t.Render(w)
}

// --- Fig. 7: weak scaling ---

// Fig7Row is one (machines, algorithm) weak-scaling measurement.
type Fig7Row struct {
	Machines     int
	Algo         Algo
	Makespan     time.Duration
	ComputeCalls int64
}

// Fig7 runs the weak-scaling experiment: LDBC-like graphs whose size grows
// with the worker count, fixed load per worker, all twelve algorithms.
func Fig7(cfg Config, machines []int, algos []Algo) ([]Fig7Row, error) {
	if len(machines) == 0 {
		machines = []int{1, 2, 4, 8, 10}
	}
	if len(algos) == 0 {
		algos = append(append([]Algo{}, TIAlgos...), TDAlgos...)
	}
	var rows []Fig7Row
	for _, m := range machines {
		g, err := gen.Generate(gen.LDBCLike(m, cfg.Scale), cfg.Seed)
		if err != nil {
			return nil, err
		}
		sub := cfg
		sub.Workers = m
		for _, al := range algos {
			met, err := Run(sub, ICM, al, g)
			if err != nil {
				return nil, fmt.Errorf("bench: fig7 %dm/%s: %w", m, al, err)
			}
			rows = append(rows, Fig7Row{Machines: m, Algo: al, Makespan: time.Duration(met.MakespanNS), ComputeCalls: met.ComputeCalls})
		}
	}
	return rows, nil
}

// RenderFig7 prints the scaling table with two efficiency views. "Wall"
// efficiency (makespan_1 / makespan_m) is the paper's metric and is only
// meaningful when the host has at least as many cores as machines.
// "Serialized" efficiency (makespan_1 / (makespan_m / m)) is the correct
// reading on a time-shared or single-core host, where m workers multiply
// the wall-clock by m even under ideal scaling. "LoadEff" checks that the
// per-machine primitive load actually stayed constant.
func RenderFig7(w io.Writer, rows []Fig7Row) {
	fmt.Fprintf(w, "Fig. 7: weak scaling of GRAPHITE (fixed load per worker; host has %d core(s))\n", runtime.NumCPU())
	baseT := map[Algo]time.Duration{}
	baseC := map[Algo]int64{}
	for _, r := range rows {
		if r.Machines == 1 {
			baseT[r.Algo] = r.Makespan
			baseC[r.Algo] = r.ComputeCalls
		}
	}
	t := stats.Table{Header: []string{"Machines", "Algo", "Makespan", "WallEff", "SerializedEff", "LoadEff"}}
	for _, r := range rows {
		wall, ser, load := "-", "-", "-"
		if b, ok := baseT[r.Algo]; ok && r.Makespan > 0 {
			wall = fmt.Sprintf("%.0f%%", 100*float64(b)/float64(r.Makespan))
			ser = fmt.Sprintf("%.0f%%", 100*float64(b)*float64(r.Machines)/float64(r.Makespan))
		}
		if b, ok := baseC[r.Algo]; ok && r.ComputeCalls > 0 {
			load = fmt.Sprintf("%.0f%%", 100*float64(b)*float64(r.Machines)/float64(r.ComputeCalls))
		}
		t.Add(r.Machines, string(r.Algo), r.Makespan.Round(time.Microsecond), wall, ser, load)
	}
	t.Render(w)
}

// --- Sec. VI: interval message encoding savings ---

// MsgSizeRow reports the var-byte encoding saving for one dataset.
type MsgSizeRow struct {
	Graph      string
	Messages   int64
	VarBytes   int64
	FixedBytes int64
	Saving     float64
}

// MsgSize runs ICM SSSP on every dataset and compares the var-byte message
// bytes against the fixed two-longs-per-interval encoding. The paper reports
// 59-78% savings.
func MsgSize(cfg Config) ([]MsgSizeRow, error) {
	ds, err := Datasets(cfg)
	if err != nil {
		return nil, err
	}
	var rows []MsgSizeRow
	for _, d := range ds {
		m, err := Run(cfg, ICM, SSSP, d.Graph)
		if err != nil {
			return nil, err
		}
		fixed := m.Messages * (16 + 8) // two fixed longs + fixed payload
		saving := 0.0
		if fixed > 0 {
			saving = 1 - float64(m.MessageBytes)/float64(fixed)
		}
		rows = append(rows, MsgSizeRow{
			Graph: d.Profile.Name, Messages: m.Messages,
			VarBytes: m.MessageBytes, FixedBytes: fixed, Saving: saving,
		})
	}
	return rows, nil
}

// RenderMsgSize prints the encoding comparison.
func RenderMsgSize(w io.Writer, rows []MsgSizeRow) {
	fmt.Fprintln(w, "Interval message encoding: var-byte vs fixed 16B intervals + 8B payload (paper: 59-78% saving)")
	t := stats.Table{Header: []string{"Graph", "Messages", "VarBytes", "FixedBytes", "Saving"}}
	for _, r := range rows {
		t.Add(r.Graph, r.Messages, r.VarBytes, r.FixedBytes, fmt.Sprintf("%.0f%%", 100*r.Saving))
	}
	t.Render(w)
}
