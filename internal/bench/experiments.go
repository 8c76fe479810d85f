package bench

import (
	"fmt"
	"io"
	"time"

	"graphite/internal/obs"
	"graphite/internal/stats"
	"graphite/internal/tgraph"
)

// --- Table 1: dataset characteristics ---

// Table1Row is one dataset's characteristics.
type Table1Row struct {
	Name string
	C    tgraph.Characteristics
}

// Table1 computes the dataset characteristics table.
func Table1(cfg Config) ([]Table1Row, error) {
	ds, err := Datasets(cfg)
	if err != nil {
		return nil, err
	}
	var rows []Table1Row
	for _, d := range ds {
		rows = append(rows, Table1Row{Name: d.Profile.Name, C: d.Graph.ComputeCharacteristics()})
	}
	return rows, nil
}

// RenderTable1 prints the characteristics in the paper's layout.
func RenderTable1(w io.Writer, rows []Table1Row) {
	t := stats.Table{Header: []string{
		"Graph", "#Snaps", "Int|V|", "Int|E|", "Snap|V|", "Snap|E|",
		"Trans|V|", "Trans|E|", "Multi|V|", "Multi|E|", "LifeV", "LifeE", "LifeProp",
	}}
	for _, r := range rows {
		c := r.C
		t.Add(r.Name, c.Snapshots, c.IntervalV, c.IntervalE, c.LargestSnapV, c.LargestSnapE,
			c.TransformedV, c.TransformedE, c.MultiSnapV, c.MultiSnapE,
			c.AvgVertexLife, c.AvgEdgeLife, c.AvgPropLife)
	}
	fmt.Fprintln(w, "Table 1: dataset characteristics (synthetic profiles shaped like the paper's graphs)")
	t.Render(w)
}

// --- Cell: one (platform, algorithm, graph) measurement ---

// Cell is one measured run.
type Cell struct {
	Graph    string
	Platform Platform
	Algo     Algo
	M        obs.RunEnd
}

// RunMatrix measures every runnable (platform, algorithm) pair on every
// dataset. It is the shared data source for Table 2, Fig. 4 and Fig. 5.
func RunMatrix(cfg Config, algos []Algo) ([]Cell, error) {
	ds, err := Datasets(cfg)
	if err != nil {
		return nil, err
	}
	var cells []Cell
	for _, d := range ds {
		for _, al := range algos {
			for _, pl := range PlatformsFor(al) {
				m, err := Run(cfg, pl, al, d.Graph)
				if err != nil {
					return nil, fmt.Errorf("bench: %s/%s/%s: %w", d.Profile.Name, pl, al, err)
				}
				cells = append(cells, Cell{Graph: d.Profile.Name, Platform: pl, Algo: al, M: *m})
			}
		}
	}
	return cells, nil
}

// --- Table 2: speedup ratios over GRAPHITE ---

// Table2Row is the ratio of one baseline's makespan over GRAPHITE's,
// averaged over the TI or TD algorithms, for one graph.
type Table2Row struct {
	Graph    string
	Platform Platform
	Kind     string // "TI" or "TD"
	Ratio    float64
}

// Table2 derives the speedup table from a measurement matrix.
func Table2(cells []Cell) []Table2Row {
	// Index makespans.
	mk := map[string]map[Platform]map[Algo]time.Duration{}
	for _, c := range cells {
		if mk[c.Graph] == nil {
			mk[c.Graph] = map[Platform]map[Algo]time.Duration{}
		}
		if mk[c.Graph][c.Platform] == nil {
			mk[c.Graph][c.Platform] = map[Algo]time.Duration{}
		}
		mk[c.Graph][c.Platform][c.Algo] = time.Duration(c.M.MakespanNS)
	}
	var rows []Table2Row
	graphs := orderedGraphs(cells)
	for _, g := range graphs {
		for _, pl := range []Platform{MSB, CHL, TGB, GOF} {
			kind, pool := "TI", TIAlgos
			if pl == TGB || pl == GOF {
				kind, pool = "TD", TDAlgos
			}
			var ratios []float64
			for _, al := range pool {
				base, ok1 := mk[g][pl][al]
				icm, ok2 := mk[g][ICM][al]
				if ok1 && ok2 && icm > 0 {
					ratios = append(ratios, float64(base)/float64(icm))
				}
			}
			if len(ratios) > 0 {
				rows = append(rows, Table2Row{Graph: g, Platform: pl, Kind: kind, Ratio: stats.Mean(ratios)})
			}
		}
	}
	return rows
}

// RenderTable2 prints the ratio matrix (graphs as columns).
func RenderTable2(w io.Writer, rows []Table2Row) {
	graphs := []string{}
	seen := map[string]bool{}
	for _, r := range rows {
		if !seen[r.Graph] {
			seen[r.Graph] = true
			graphs = append(graphs, r.Graph)
		}
	}
	t := stats.Table{Header: append([]string{"Kind", "Platform"}, graphs...)}
	for _, pl := range []Platform{MSB, CHL, TGB, GOF} {
		kind := "TI"
		if pl == TGB || pl == GOF {
			kind = "TD"
		}
		cells := []any{kind, string(pl)}
		for _, g := range graphs {
			val := "-"
			for _, r := range rows {
				if r.Graph == g && r.Platform == pl {
					val = fmt.Sprintf("%.2fx", r.Ratio)
				}
			}
			cells = append(cells, val)
		}
		t.Add(cells...)
	}
	fmt.Fprintln(w, "Table 2: baseline makespan / GRAPHITE makespan (avg over TI or TD algorithms; >1x = GRAPHITE faster)")
	t.Render(w)
}

func orderedGraphs(cells []Cell) []string {
	var out []string
	seen := map[string]bool{}
	for _, c := range cells {
		if !seen[c.Graph] {
			seen[c.Graph] = true
			out = append(out, c.Graph)
		}
	}
	return out
}

// --- Fig. 4: correlation of counts with times ---

// Fig4Result holds the R² coefficients over the measurement matrix: pooled
// across platforms (the paper's framing — all its platforms share Giraph's
// per-call costs) and per platform (this repo's platforms have heterogeneous
// per-call costs, so the within-platform fit is the sharper signal).
type Fig4Result struct {
	Points          int
	R2Compute       float64
	R2Messaging     float64
	PerPlatform     []Fig4PlatformRow
	ComputePoints   [][2]float64 // (compute calls, compute+ seconds)
	MessagingPoints [][2]float64 // (messages, messaging seconds)
}

// Fig4PlatformRow is one platform's correlation.
type Fig4PlatformRow struct {
	Platform    Platform
	Points      int
	R2Compute   float64
	R2Messaging float64
}

// Fig4 computes the log-log correlations of Fig. 4 from a matrix.
func Fig4(cells []Cell) Fig4Result {
	var res Fig4Result
	var cx, cy, mx, my []float64
	perCX := map[Platform][]float64{}
	perCY := map[Platform][]float64{}
	perMX := map[Platform][]float64{}
	perMY := map[Platform][]float64{}
	for _, c := range cells {
		cc := float64(c.M.ComputeCalls)
		ct := time.Duration(c.M.ComputeNS).Seconds()
		ms := float64(c.M.Messages)
		mt := time.Duration(c.M.MessagingNS).Seconds()
		if cc > 0 && ct > 0 {
			cx, cy = append(cx, cc), append(cy, ct)
			perCX[c.Platform] = append(perCX[c.Platform], cc)
			perCY[c.Platform] = append(perCY[c.Platform], ct)
			res.ComputePoints = append(res.ComputePoints, [2]float64{cc, ct})
		}
		if ms > 0 && mt > 0 {
			mx, my = append(mx, ms), append(my, mt)
			perMX[c.Platform] = append(perMX[c.Platform], ms)
			perMY[c.Platform] = append(perMY[c.Platform], mt)
			res.MessagingPoints = append(res.MessagingPoints, [2]float64{ms, mt})
		}
	}
	res.Points = len(cells)
	res.R2Compute = stats.R2LogLog(cx, cy)
	res.R2Messaging = stats.R2LogLog(mx, my)
	for _, pl := range []Platform{ICM, MSB, CHL, TGB, GOF} {
		if len(perCX[pl]) == 0 {
			continue
		}
		res.PerPlatform = append(res.PerPlatform, Fig4PlatformRow{
			Platform:    pl,
			Points:      len(perCX[pl]),
			R2Compute:   stats.R2LogLog(perCX[pl], perCY[pl]),
			R2Messaging: stats.R2LogLog(perMX[pl], perMY[pl]),
		})
	}
	return res
}

// RenderFig4 prints the correlation summary.
func RenderFig4(w io.Writer, r Fig4Result) {
	fmt.Fprintln(w, "Fig. 4: log-log correlation between primitive counts and their time contributions")
	fmt.Fprintf(w, "  data points: %d\n", r.Points)
	fmt.Fprintf(w, "  R^2 (compute calls vs compute+ time):   %.2f   (paper: 0.80, pooled over one engine)\n", r.R2Compute)
	fmt.Fprintf(w, "  R^2 (messages vs messaging time):       %.2f   (paper: 0.95)\n", r.R2Messaging)
	fmt.Fprintln(w, "  within-platform fits (uniform per-call cost, the comparable setting):")
	for _, row := range r.PerPlatform {
		fmt.Fprintf(w, "    %-9s points=%-3d R^2 compute=%.2f messaging=%.2f\n",
			row.Platform, row.Points, row.R2Compute, row.R2Messaging)
	}
}

// --- Fig. 5: per-algorithm makespan splits and counts ---

// RenderFig5 prints, per graph and algorithm, each platform's makespan split
// and primitive counts.
func RenderFig5(w io.Writer, cells []Cell) {
	fmt.Fprintln(w, "Fig. 5: makespan (compute+ / messaging / barrier) and primitive counts per algorithm")
	t := stats.Table{Header: []string{
		"Graph", "Algo", "Platform", "Makespan", "Compute+", "Messaging", "Barrier",
		"ComputeCalls", "Messages", "MsgBytes", "Supersteps",
	}}
	for _, c := range cells {
		t.Add(c.Graph, string(c.Algo), string(c.Platform),
			time.Duration(c.M.MakespanNS).Round(time.Microsecond), time.Duration(c.M.ComputeNS).Round(time.Microsecond),
			time.Duration(c.M.MessagingNS).Round(time.Microsecond), time.Duration(c.M.BarrierNS).Round(time.Microsecond),
			c.M.ComputeCalls, c.M.Messages, c.M.MessageBytes, c.M.Supersteps)
	}
	t.Render(w)
}
