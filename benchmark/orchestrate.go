package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

// set is one full set of runs: per workload, the untraced and traced report.
type set struct {
	E2E    map[string]*report `json:"end_to_end"`
	Layers map[string]*report `json:"per_layer"`
}

// cell summarizes one metric of one workload across sets.
type cell struct {
	Workload string    `json:"workload"`
	Metric   string    `json:"metric"`
	Unit     string    `json:"unit"`
	Values   []float64 `json:"values"`
	Median   float64   `json:"median"`
	Q1       float64   `json:"q1"`
	Q3       float64   `json:"q3"`
	Spread   float64   `json:"spread"`
	Bound    float64   `json:"bound,omitempty"`
}

// summary is out/summary.json.
type summary struct {
	Sets     []set    `json:"sets"`
	Cells    []cell   `json:"cells"`
	Problems []string `json:"problems,omitempty"`
	Claim    *string  `json:"claim"`
}

// child runs one workload in a fresh re-exec'd process, so set-up time and
// peak memory are that workload's alone, and parses the report it wrote.
func child(cfg runConfig, workload string, trace bool) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-out", cfg.outDir, "-workload", workload,
		"-seed", strconv.FormatInt(cfg.seed, 10), "-seconds", strconv.Itoa(cfg.seconds), "-trace", "0"}
	kind := "e2e"
	if trace {
		args[len(args)-1], kind = "1", "layers"
	}
	if cfg.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(exe, args...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	runErr := cmd.Run()
	lines := bytes.Split(bytes.TrimSpace(out.Bytes()), []byte("\n"))
	if n := len(lines); n > 1 {
		os.Stdout.Write(bytes.Join(lines[:n-1], []byte("\n")))
		fmt.Println()
	}
	if runErr != nil {
		return nil, fmt.Errorf("%s (trace %v): %w", workload, trace, runErr)
	}
	b, err := os.ReadFile(filepath.Join(cfg.outDir, workload+"-"+kind+".json"))
	if err != nil {
		return nil, err
	}
	var rep report
	if err := json.Unmarshal(b, &rep); err != nil {
		return nil, err
	}
	return &rep, nil
}

// runAll runs every workload, untraced then traced, sets times over, prints
// each metric's median, quartiles and spread, writes out/summary.json, and —
// with check — fails if the sets disagree.
func runAll(cfg runConfig, sets int, check bool) error {
	sum := summary{}
	for s := 0; s < sets; s++ {
		st := set{E2E: map[string]*report{}, Layers: map[string]*report{}}
		for _, w := range workloads {
			for _, trace := range []bool{false, true} {
				rep, err := child(cfg, w.name, trace)
				if err != nil {
					return err
				}
				if trace {
					st.Layers[w.name] = rep
				} else {
					st.E2E[w.name] = rep
				}
				if rep.Failed > 0 {
					sum.Problems = append(sum.Problems, fmt.Sprintf("set %d %s: %d of %d operations failed", s, w.name, rep.Failed, rep.Attempted))
				}
			}
		}
		sum.Sets = append(sum.Sets, st)
	}

	for _, w := range workloads {
		for _, group := range []struct {
			defs []metricDef
			reps func(set) *report
		}{
			{endToEnd, func(st set) *report { return st.E2E[w.name] }},
			{perLayer, func(st set) *report { return st.Layers[w.name] }},
		} {
			for _, d := range group.defs {
				c := cell{Workload: w.name, Metric: d.name, Unit: d.unit, Bound: d.bound}
				for _, st := range sum.Sets {
					c.Values = append(c.Values, group.reps(st).Metrics[d.name].Value)
				}
				c.Median = median(c.Values)
				c.Q1, c.Q3 = quartiles(c.Values)
				c.Spread = spread(c.Values)
				sum.Cells = append(sum.Cells, c)
				fmt.Printf("%s %s median %.6g %s q1 %.6g q3 %.6g spread %.4f\n",
					c.Workload, c.Metric, c.Median, c.Unit, c.Q1, c.Q3, c.Spread)
				if p := disagreement(d, c.Values); p != "" {
					sum.Problems = append(sum.Problems, w.name+" "+p)
				}
			}
		}
	}
	if err := writeJSON(filepath.Join(cfg.outDir, "summary.json"), &sum); err != nil {
		return err
	}
	if check && len(sum.Problems) > 0 {
		for _, p := range sum.Problems {
			fmt.Fprintln(os.Stderr, "benchmark: check:", p)
		}
		return fmt.Errorf("%d check(s) failed; a cell noisier than its bound needs a longer script, not a wider bound", len(sum.Problems))
	}
	return nil
}

// disagreement applies the repeatability rule to one metric's values across
// sets: an end-to-end metric's extremes may differ by at most its bound (as a
// share of the median); a count must repeat exactly.
func disagreement(d metricDef, values []float64) string {
	if len(values) < 2 {
		return ""
	}
	s := sorted(values)
	lo, hi := s[0], s[len(s)-1]
	switch {
	case d.exact && lo != hi:
		return fmt.Sprintf("%s: count does not repeat: %v", d.name, values)
	case d.bound > 0:
		if m := median(values); m != 0 && (hi-lo)/m > d.bound {
			return fmt.Sprintf("%s: sets differ by %.1f%% of the median, bound %.0f%%: %v",
				d.name, 100*(hi-lo)/m, 100*d.bound, values)
		}
	}
	return ""
}
