// Command benchmark is the repository's one performance harness: four named
// workloads over the paths a user takes (serve cold and hot, a clustered
// PageRank job, ingest-then-requery on a live graph), each reported as the
// same end-to-end metrics and, in a separate traced run, as a per-layer
// profile measured from outside the program. See README.md.
//
// Run it through run.sh:
//
//	bash benchmark/run.sh                                  # every workload, untraced then traced
//	bash benchmark/run.sh -sets 2 -check                   # repeatability gate
//	bash benchmark/run.sh -quick                           # seconds, tiny sizes
//	bash benchmark/run.sh --workload serve_hot --seed 7 --seconds 10 --trace 0
//
// The last form is the acceptance driver's: one workload in this process,
// the result as one JSON object on the last line of standard output.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"

	"graphite/internal/gen"
)

// defaultSeconds is BENCHMARK.json's run_seconds: the nominal length of one
// measured phase.
const defaultSeconds = 10

// setupRounds is how many times a run sets the workload up; setup_s is the
// median, and the last set-up is the one the script runs against.
const setupRounds = 3

// Quick mode: tiny graphs and 20 operations per workload, for the tests.
const (
	quickScale gen.Scale = 0.1
	quickOps             = 20
)

// runConfig is one workload run.
type runConfig struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	quick    bool
	outDir   string
}

// envelope is the run environment every output carries.
type envelope struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NProc      int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    int     `json:"seconds"`
	Scale      float64 `json:"scale"`
	Clients    int     `json:"clients"`
	OpsPerCli  int     `json:"ops_per_client"`
	BSPWorkers int     `json:"bsp_workers"`
}

func newEnvelope(cfg runConfig, spec workloadSpec, p params) envelope {
	env := envelope{
		Commit: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NProc: runtime.NumCPU(), CPUModel: "unknown", Seed: cfg.seed, Seconds: cfg.seconds,
		Scale: float64(p.scale), Clients: spec.clients, OpsPerCli: p.ops, BSPWorkers: bspWorkers,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				env.Commit = s.Value
			}
		}
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	return env
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result of one workload run: what the driver reads off the
// last line (Correct, Attempted, Failed, Metrics) plus the record kept in
// out/.
type report struct {
	Workload  string                 `json:"workload"`
	Trace     bool                   `json:"trace"`
	Env       envelope               `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Samples   int                    `json:"latency_samples"`
	Metrics   map[string]metricValue `json:"metrics"`
	Spans     []spanTotal            `json:"spans,omitempty"`
	Claim     *string                `json:"claim"` // this benchmark claims no gain
}

func (r *report) fill(m *metricSet) {
	r.Metrics = make(map[string]metricValue, len(m.defs))
	for _, d := range m.defs {
		r.Metrics[d.name] = metricValue{Value: m.get(d.name), Unit: d.unit}
	}
}

// runWorkload runs one workload in this process and returns its report. A
// verification mismatch is reported (Correct false) together with the error.
func runWorkload(cfg runConfig) (*report, error) {
	spec, ok := findWorkload(cfg.workload)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		return nil, fmt.Errorf("unknown workload %q (have %s)", cfg.workload, strings.Join(names, " "))
	}
	p := params{seed: cfg.seed, scale: spec.scale, clients: spec.clients, ops: spec.opsPerClient(cfg.seconds)}
	if cfg.quick {
		p.scale, p.ops = quickScale, (quickOps+spec.clients-1)/spec.clients
	}
	tmp, err := os.MkdirTemp(cfg.outDir, "tmp-"+spec.name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	rep := &report{Workload: spec.name, Trace: cfg.trace, Env: newEnvelope(cfg, spec, p)}
	// A phase may overrun its nominal length eightfold before the remaining
	// operations are abandoned as failed; the driver's cap is 180 s per run.
	limit := time.Duration(max(cfg.seconds, 5)) * 8 * time.Second
	if cfg.trace {
		err = runTraced(cfg, spec, p, tmp, limit, rep)
	} else {
		err = runUntraced(spec, p, tmp, limit, rep)
	}
	return rep, err
}

// setUp builds a fresh instance of the workload under its own directory and
// returns it with the set-up time.
func setUp(spec workloadSpec, p params, dir string) (workload, float64, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, 0, err
	}
	w := spec.build(p)
	t0 := time.Now()
	if err := w.setup(dir); err != nil {
		w.close()
		return nil, 0, fmt.Errorf("set-up: %w", err)
	}
	return w, time.Since(t0).Seconds(), nil
}

// runUntraced is the run end-to-end metrics come from.
func runUntraced(spec workloadSpec, p params, tmp string, limit time.Duration, rep *report) error {
	var setups []float64
	var w workload
	for r := 0; r < setupRounds; r++ {
		if w != nil {
			w.close()
		}
		dir := filepath.Join(tmp, fmt.Sprintf("setup-%d", r))
		var s float64
		var err error
		if w, s, err = setUp(spec, p, dir); err != nil {
			return err
		}
		setups = append(setups, s)
		if r < setupRounds-1 {
			if err := os.RemoveAll(dir); err != nil {
				return err
			}
		}
	}
	defer w.close()

	pass := runPass(w, p.clients, p.ops, false, limit)
	rss := peakRSSMB()
	m := newMetricSet(endToEnd)
	m.set("setup_s", median(setups))
	m.set("op_p50_ms", median(pass.latMS))
	m.set("op_p90_ms", percentile(pass.latMS, 90))
	m.set("throughput_ops_s", float64(len(pass.latMS))/pass.wall.Seconds())
	m.set("cpu_s_per_op", pass.cpu.Seconds()/float64(max(len(pass.latMS), 1)))
	m.set("peak_rss_mb", rss)
	rep.Attempted, rep.Failed, rep.Samples = pass.attempted, pass.failed, len(pass.latMS)
	rep.fill(m)

	if err := w.verify(); err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	rep.Correct = true
	return nil
}

// runTraced is the run per-layer metrics come from: the script at a quarter
// of its length, once untraced and once — on a fresh set-up, so the two see
// identical state — with the benchmark recording spans around every call it
// makes; then the layer probes on the workload's own inputs.
func runTraced(cfg runConfig, spec workloadSpec, p params, tmp string, limit time.Duration, rep *report) error {
	p.ops = max(p.ops/4, 1)
	rep.Env.OpsPerCli = p.ops
	base, _, err := setUp(spec, p, filepath.Join(tmp, "untraced"))
	if err != nil {
		return err
	}
	plain := runPass(base, p.clients, p.ops, false, limit)
	base.close()

	w, _, err := setUp(spec, p, filepath.Join(tmp, "traced"))
	if err != nil {
		return err
	}
	defer w.close()
	pass := runPass(w, p.clients, p.ops, true, limit)
	rep.Attempted, rep.Failed, rep.Samples = pass.attempted, pass.failed+plain.failed, len(pass.latMS)
	// Counters first: verification reads results back through the server
	// and would be counted as traffic.
	m := newMetricSet(perLayer)
	w.counters(m)
	if err := w.verify(); err != nil {
		return fmt.Errorf("verification: %w", err)
	}
	layerDir := filepath.Join(tmp, "layers")
	if err := os.MkdirAll(layerDir, 0o755); err != nil {
		return err
	}
	stepped, err := w.layers(m, layerDir)
	if err != nil {
		return fmt.Errorf("layer probes: %w", err)
	}

	tracePath := filepath.Join(cfg.outDir, "trace-"+spec.name+".jsonl")
	if err := os.RemoveAll(tracePath); err != nil {
		return err
	}
	totals := spanTotals{}
	for c, rec := range pass.recs {
		mergeTotals(totals, selfTimes(rec.spans))
		if err := writeSpans(tracePath, spec.name, c, rec.spans); err != nil {
			return err
		}
	}
	ops := float64(len(pass.latMS))
	span := totals.get
	perOp := func(name string, unitNS float64) float64 { return float64(span(name).WallNS) / unitNS / ops }
	m.set("client.encode_us_per_op", perOp("request_encode", 1e3))
	m.set("client.round_trip_ms_per_op", perOp("round_trip", 1e6))
	m.set("client.body_read_ms_per_op", perOp("body_read", 1e6))
	m.set("client.check_us_per_op", perOp("check", 1e3))
	// Untracked: whatever of the operations' time no span below the root
	// accounts for — the self time of every span that has children.
	var untracked int64
	for _, name := range []string{"op", "ingest", "requery"} {
		untracked += span(name).SelfNS
	}
	if op := span("op"); op.WallNS > 0 {
		m.set("client.op_untracked_share", float64(untracked)/float64(op.WallNS))
	}
	if t := span("ingest"); t.Count > 0 {
		m.set("serve.ingest_ms_per_batch", float64(t.WallNS)/1e6/float64(t.Count))
	}
	if t := span("requery"); t.Count > 0 {
		m.set("serve.requery_ms", float64(t.WallNS)/1e6/float64(t.Count))
	}
	m.set("process.alloc_mb_per_op", float64(plain.allocB)/(1<<20)/float64(max(len(plain.latMS), 1)))
	if plain.cpu > 0 {
		m.set("process.gc_cpu_share", plain.gcCPU/plain.cpu.Seconds())
	}
	if p50 := median(plain.latMS); p50 > 0 {
		m.set("obs.trace_overhead_ratio", median(pass.latMS)/p50)
	}
	rep.fill(m)
	// The stepped re-run's spans join the trace as client -1; its span names
	// are its own, so the totals stay apart.
	if err := writeSpans(tracePath, spec.name, -1, stepped); err != nil {
		return err
	}
	mergeTotals(totals, selfTimes(stepped))
	for _, t := range totals {
		rep.Spans = append(rep.Spans, *t)
	}
	sort.Slice(rep.Spans, func(a, b int) bool { return rep.Spans[a].Name < rep.Spans[b].Name })
	rep.Correct = true
	return nil
}

// printReport writes the human-readable lines: `workload metric value unit`.
func printReport(r *report) {
	defs := endToEnd
	if r.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		fmt.Printf("%s %s %.6g %s\n", r.Workload, d.name, r.Metrics[d.name].Value, d.unit)
	}
	fmt.Printf("%s latency_samples %d count\n", r.Workload, r.Samples)
	fmt.Printf("%s failed_share %.6g ratio\n", r.Workload, float64(r.Failed)/float64(max(r.Attempted, 1)))
	for _, t := range r.Spans {
		fmt.Printf("%s span %s count %d wall_ms %.3f self_ms %.3f\n",
			r.Workload, t.Name, t.Count, float64(t.WallNS)/1e6, float64(t.SelfNS)/1e6)
	}
}

// writeJSON writes v, indented, to path.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

func main() {
	runtime.GOMAXPROCS(bspWorkers)
	var cfg runConfig
	var trace string
	var sets int
	var check bool
	flag.StringVar(&cfg.workload, "workload", "", "run this one workload in this process and print its result as the last line (default: every workload, each in a child process)")
	flag.Int64Var(&cfg.seed, "seed", 42, "seed every generated input derives from")
	flag.IntVar(&cfg.seconds, "seconds", defaultSeconds, "nominal length of the measured phase; sizes the script")
	flag.StringVar(&trace, "trace", "0", "1: the traced run (per-layer metrics); 0: the untraced run (end-to-end metrics)")
	flag.BoolVar(&cfg.quick, "quick", false, "tiny graphs, 20 operations per workload")
	flag.StringVar(&cfg.outDir, "out", filepath.Join("benchmark", "out"), "directory for reports, traces and scratch files")
	flag.IntVar(&sets, "sets", 1, "with no -workload: how many full sets of runs to make")
	flag.BoolVar(&check, "check", false, "with -sets N: fail unless the sets agree within every bound and every count repeats exactly")
	flag.Parse()
	if flag.NArg() > 0 || (trace != "0" && trace != "1") || cfg.seconds < 1 || sets < 1 {
		flag.Usage()
		os.Exit(2)
	}
	cfg.trace = trace == "1"
	if err := os.MkdirAll(cfg.outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}

	if cfg.workload == "" {
		if err := runAll(cfg, sets, check); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		if rep == nil || rep.Metrics == nil {
			os.Exit(1)
		}
	}
	printReport(rep)
	kind := "e2e"
	if cfg.trace {
		kind = "layers"
	}
	if werr := writeJSON(filepath.Join(cfg.outDir, rep.Workload+"-"+kind+".json"), rep); werr != nil && err == nil {
		err = werr
	}
	last, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, rep.Metrics})
	fmt.Println(string(last))
	if err != nil {
		os.Exit(1)
	}
}
