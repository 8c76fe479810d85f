package bench

import (
	"bufio"
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"

	"graphite/internal/gen"
)

// tinyConfig shrinks everything for unit testing the harness machinery.
func tinyConfig() Config {
	cfg := DefaultConfig()
	cfg.Scale = 0.02
	cfg.Workers = 4
	cfg.PRIterations = 3
	return cfg
}

func TestDatasetsGenerate(t *testing.T) {
	ds, err := Datasets(tinyConfig())
	if err != nil {
		t.Fatalf("Datasets: %v", err)
	}
	if len(ds) != 6 {
		t.Fatalf("want 6 datasets, got %d", len(ds))
	}
	names := map[string]bool{}
	for _, d := range ds {
		names[d.Profile.Name] = true
		if d.Graph.NumVertices() == 0 || d.Graph.NumEdges() == 0 {
			t.Errorf("dataset %s is degenerate: %v", d.Profile.Name, d.Graph)
		}
	}
	for _, n := range []string{"gplus", "reddit", "usrn", "twitter", "mag", "webuk"} {
		if !names[n] {
			t.Errorf("missing dataset %s", n)
		}
	}
}

func TestTable1(t *testing.T) {
	rows, err := Table1(tinyConfig())
	if err != nil {
		t.Fatalf("Table1: %v", err)
	}
	byName := map[string]Table1Row{}
	for _, r := range rows {
		byName[r.Name] = r
		if r.C.TransformedV < r.C.IntervalV {
			t.Errorf("%s: transformed |V| %d < interval |V| %d", r.Name, r.C.TransformedV, r.C.IntervalV)
		}
	}
	// Characteristic shape checks mirroring the paper's Table 1.
	if g := byName["gplus"]; g.C.AvgEdgeLife > 1.01 {
		t.Errorf("gplus edges must be unit-length, got avg %f", g.C.AvgEdgeLife)
	}
	if tw := byName["twitter"]; tw.C.AvgEdgeLife < float64(tw.C.Snapshots)/2 {
		t.Errorf("twitter edges should span most of the lifetime: avg %f of %d", tw.C.AvgEdgeLife, tw.C.Snapshots)
	}
	if u := byName["usrn"]; u.C.AvgEdgeLife != float64(u.C.Snapshots) {
		t.Errorf("usrn topology is static: avg edge life %f != %d", u.C.AvgEdgeLife, u.C.Snapshots)
	}
	var buf bytes.Buffer
	RenderTable1(&buf, rows)
	if !strings.Contains(buf.String(), "usrn") {
		t.Errorf("render missing dataset row:\n%s", buf.String())
	}
}

func TestRunMatrixAndDerivedTables(t *testing.T) {
	cfg := tinyConfig()
	cells, err := RunMatrix(cfg, []Algo{BFS, SSSP})
	if err != nil {
		t.Fatalf("RunMatrix: %v", err)
	}
	// 6 graphs x (BFS on 3 platforms + SSSP on 3 platforms).
	if len(cells) != 6*6 {
		t.Fatalf("want 36 cells, got %d", len(cells))
	}
	rows := Table2(cells)
	if len(rows) == 0 {
		t.Fatalf("Table2 produced no rows")
	}
	for _, r := range rows {
		if r.Ratio <= 0 {
			t.Errorf("ratio must be positive: %+v", r)
		}
	}
	var buf bytes.Buffer
	RenderTable2(&buf, rows)
	if !strings.Contains(buf.String(), "GoFFish") {
		t.Errorf("render missing platform:\n%s", buf.String())
	}

	f4 := Fig4(cells)
	if f4.Points != len(cells) {
		t.Errorf("fig4 points = %d, want %d", f4.Points, len(cells))
	}
	buf.Reset()
	RenderFig4(&buf, f4)
	RenderFig5(&buf, cells)
	if !strings.Contains(buf.String(), "ComputeCalls") {
		t.Errorf("fig5 render incomplete")
	}
}

func TestCountsIntrinsicToModelNotWorkers(t *testing.T) {
	// Sec. VII-B1: compute-call and message counts are intrinsic to the
	// programming model; they must not depend on the worker count.
	cfg := tinyConfig()
	ds, err := Datasets(cfg)
	if err != nil {
		t.Fatal(err)
	}
	g := ds[3].Graph // twitter-like
	for _, al := range []Algo{BFS, SSSP, LD, TC} {
		var calls, msgs int64
		for i, w := range []int{1, 3, 7} {
			sub := cfg
			sub.Workers = w
			m, err := Run(sub, ICM, al, g)
			if err != nil {
				t.Fatalf("%s: %v", al, err)
			}
			if i == 0 {
				calls, msgs = m.ComputeCalls, m.Messages
				continue
			}
			if m.ComputeCalls != calls || m.Messages != msgs {
				t.Errorf("%s: counts vary with workers: (%d,%d) vs (%d,%d)",
					al, m.ComputeCalls, m.Messages, calls, msgs)
			}
		}
	}
}

func TestFig6a(t *testing.T) {
	rows, err := Fig6a(tinyConfig())
	if err != nil {
		t.Fatalf("Fig6a: %v", err)
	}
	byName := map[string]Fig6aRow{}
	for _, r := range rows {
		byName[r.Graph] = r
		if r.IntervalB <= 0 || r.TransformedB <= 0 || r.SnapshotB <= 0 {
			t.Errorf("footprints must be positive: %+v", r)
		}
	}
	// The transformed graph must blow up most on long-lifespan graphs.
	tw := byName["twitter"]
	if tw.TransformedB <= tw.IntervalB {
		t.Errorf("twitter transformed footprint %d should exceed interval %d", tw.TransformedB, tw.IntervalB)
	}
	var buf bytes.Buffer
	RenderFig6a(&buf, rows)
	if !strings.Contains(buf.String(), "TGB/ICM") {
		t.Errorf("fig6a render incomplete")
	}
}

func TestFig6bAnd6c(t *testing.T) {
	cfg := tinyConfig()
	b, err := Fig6b(cfg)
	if err != nil {
		t.Fatalf("Fig6b: %v", err)
	}
	if len(b) == 0 {
		t.Fatalf("no combiner rows")
	}
	c, err := Fig6c(cfg)
	if err != nil {
		t.Fatalf("Fig6c: %v", err)
	}
	found := false
	for _, r := range c {
		if r.Suppressed > 0 {
			found = true
		}
	}
	if !found {
		t.Errorf("suppression never engaged on the unit-lifespan graph")
	}
	var buf bytes.Buffer
	RenderFig6b(&buf, b)
	RenderFig6c(&buf, c)
	if !strings.Contains(buf.String(), "Speedup") {
		t.Errorf("fig6 render incomplete")
	}
}

func TestFig7(t *testing.T) {
	cfg := tinyConfig()
	rows, err := Fig7(cfg, []int{1, 2}, []Algo{BFS, SSSP})
	if err != nil {
		t.Fatalf("Fig7: %v", err)
	}
	if len(rows) != 4 {
		t.Fatalf("want 4 rows, got %d", len(rows))
	}
	var buf bytes.Buffer
	RenderFig7(&buf, rows)
	if !strings.Contains(buf.String(), "SerializedEff") {
		t.Errorf("fig7 render incomplete")
	}
}

func TestMsgSize(t *testing.T) {
	rows, err := MsgSize(tinyConfig())
	if err != nil {
		t.Fatalf("MsgSize: %v", err)
	}
	for _, r := range rows {
		if r.Messages == 0 {
			continue
		}
		if r.Saving <= 0 {
			t.Errorf("%s: var-byte encoding should save bytes, got %.2f", r.Graph, r.Saving)
		}
	}
	var buf bytes.Buffer
	RenderMsgSize(&buf, rows)
	if !strings.Contains(buf.String(), "Saving") {
		t.Errorf("msgsize render incomplete")
	}
}

func TestLoCTable(t *testing.T) {
	rows, err := LoCTable()
	if err != nil {
		t.Fatalf("LoCTable: %v", err)
	}
	perPlatform := map[Platform]int{}
	for _, r := range rows {
		if r.Lines <= 0 {
			t.Errorf("%s/%s: zero LoC", r.Platform, r.Algo)
		}
		perPlatform[r.Platform]++
	}
	if perPlatform[ICM] != 12 {
		t.Errorf("ICM should have 12 algorithms, got %d", perPlatform[ICM])
	}
	if perPlatform[MSB] != 4 {
		t.Errorf("MSB should have 4 algorithms, got %d", perPlatform[MSB])
	}
	var buf bytes.Buffer
	RenderLoC(&buf, rows)
	if !strings.Contains(buf.String(), "GRAPHITE") {
		t.Errorf("loc render incomplete")
	}
}

func TestRunRejectsBadPairs(t *testing.T) {
	cfg := tinyConfig()
	ds, _ := Datasets(cfg)
	if _, err := Run(cfg, MSB, SSSP, ds[0].Graph); err == nil {
		t.Errorf("MSB must reject TD algorithms")
	}
	if _, err := Run(cfg, TGB, BFS, ds[0].Graph); err == nil {
		t.Errorf("TGB must reject TI algorithms")
	}
	if _, err := Run(cfg, Platform("nope"), BFS, ds[0].Graph); err == nil {
		t.Errorf("unknown platform must error")
	}
}

// fig5Record parses the GRAPHITE rows of the Fig. 5 table in the committed
// scale-1 record: graph → algorithm → (ComputeCalls, Messages, MsgBytes,
// Supersteps), the last four columns RenderFig5 prints.
func fig5Record(t *testing.T) map[string]map[Algo][4]int64 {
	t.Helper()
	f, err := os.Open("../../docs/bench_record_scale1.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rec := map[string]map[Algo][4]int64{}
	in := false
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "Fig. 5:"):
			in = true
			continue
		case !in:
			continue
		case strings.TrimSpace(line) == "":
			return rec // the table ends at the first blank line
		}
		fld := strings.Fields(line)
		if len(fld) != 11 || fld[2] != string(ICM) {
			continue // the two header lines and the baselines' rows
		}
		var counts [4]int64
		for i := range counts {
			if counts[i], err = strconv.ParseInt(fld[7+i], 10, 64); err != nil {
				t.Fatalf("record row %q: %v", line, err)
			}
		}
		if rec[fld[0]] == nil {
			rec[fld[0]] = map[Algo][4]int64{}
		}
		rec[fld[0]][Algo(fld[1])] = counts
	}
	t.Fatalf("docs/bench_record_scale1.txt: no Fig. 5 table (%v)", sc.Err())
	return nil
}

// TestFig5CountsMatchRecord re-runs Fig. 5's GRAPHITE rows — 12 algorithms
// over 6 graphs under DefaultConfig, as recorded at PR 10 — and requires the
// paper's causal counts (Sec. VII-B2) to repeat exactly: whatever the runtime
// has been made to cost since, it must still do the same work. -short runs
// the two smallest graphs.
func TestFig5CountsMatchRecord(t *testing.T) {
	cfg := DefaultConfig()
	rec := fig5Record(t)
	if len(rec) != 6 {
		t.Fatalf("record holds %d graphs, want 6", len(rec))
	}
	for _, p := range gen.AllProfiles(cfg.Scale) {
		want := rec[p.Name]
		if len(want) != len(TIAlgos)+len(TDAlgos) {
			t.Errorf("%s: record holds %d GRAPHITE rows, want %d", p.Name, len(want), len(TIAlgos)+len(TDAlgos))
		}
		if testing.Short() && p.Name != "gplus" && p.Name != "reddit" {
			continue
		}
		g, err := gen.Generate(p, cfg.Seed)
		if err != nil {
			t.Fatal(err)
		}
		for al, w := range want {
			m, err := Run(cfg, ICM, al, g)
			if err != nil {
				t.Fatalf("%s %s: %v", p.Name, al, err)
			}
			got := [4]int64{m.ComputeCalls, m.Messages, m.MessageBytes, int64(m.Supersteps)}
			if got != w {
				t.Errorf("%s %s: (calls, messages, bytes, supersteps) = %v, recorded %v", p.Name, al, got, w)
			}
		}
	}
}
