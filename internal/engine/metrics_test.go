package engine

import (
	"strings"
	"testing"
	"time"

	"graphite/internal/obs"
)

// TestMetricsAddFoldsRuns: the baselines fold one engine run per snapshot
// (or batch) with Add — the run count, mean and max makespan must summarize
// the per-run distribution, and pre-Runs-era values (zero Runs) must count
// as one run each.
func TestMetricsAddFoldsRuns(t *testing.T) {
	var m Metrics
	m.Add(&Metrics{Supersteps: 3, Messages: 10, Makespan: 30 * time.Millisecond})
	m.Add(&Metrics{Supersteps: 2, Messages: 5, Makespan: 10 * time.Millisecond})
	m.Add(&Metrics{Supersteps: 1, Messages: 1, Makespan: 20 * time.Millisecond})

	if m.Runs != 3 {
		t.Errorf("Runs = %d, want 3", m.Runs)
	}
	if m.Supersteps != 6 || m.Messages != 16 {
		t.Errorf("sums wrong: supersteps=%d messages=%d", m.Supersteps, m.Messages)
	}
	if m.Makespan != 60*time.Millisecond {
		t.Errorf("Makespan = %v, want 60ms (total across runs)", m.Makespan)
	}
	if got := m.MeanMakespan(); got != 20*time.Millisecond {
		t.Errorf("MeanMakespan = %v, want 20ms", got)
	}
	if m.MaxMakespan != 30*time.Millisecond {
		t.Errorf("MaxMakespan = %v, want 30ms", m.MaxMakespan)
	}

	// Folding already-folded metrics keeps the run count and max honest.
	var total Metrics
	total.Add(&m)
	total.Add(&Metrics{Runs: 2, Makespan: 100 * time.Millisecond, MaxMakespan: 90 * time.Millisecond})
	if total.Runs != 5 {
		t.Errorf("nested Runs = %d, want 5", total.Runs)
	}
	if total.MaxMakespan != 90*time.Millisecond {
		t.Errorf("nested MaxMakespan = %v, want 90ms", total.MaxMakespan)
	}
	if got := total.MeanMakespan(); got != 32*time.Millisecond {
		t.Errorf("nested MeanMakespan = %v, want 32ms", got)
	}
}

// TestMetricsAddNormalizesReceiver: a hand-assembled single run used as the
// accumulator (zero Runs, zero MaxMakespan) must count itself — its own
// makespan enters the max and the run count, not just o's.
func TestMetricsAddNormalizesReceiver(t *testing.T) {
	m := Metrics{Supersteps: 4, Makespan: 40 * time.Millisecond}
	m.Add(&Metrics{Supersteps: 1, Makespan: 10 * time.Millisecond})
	if m.Runs != 2 {
		t.Errorf("Runs = %d, want 2 (receiver run + added run)", m.Runs)
	}
	if m.MaxMakespan != 40*time.Millisecond {
		t.Errorf("MaxMakespan = %v, want 40ms (the receiver's own run)", m.MaxMakespan)
	}
	if got := m.MeanMakespan(); got != 25*time.Millisecond {
		t.Errorf("MeanMakespan = %v, want 25ms", got)
	}
}

// ledger is what a run's Metrics count, times and fault counters aside.
func ledger(m *Metrics) [7]int64 {
	return [7]int64{int64(m.Supersteps), m.ComputeCalls, m.ScatterCalls, m.Messages, m.MessageBytes, m.Delivered, m.Spilled}
}

// innerRunMaster runs a whole second run, publishing into reg, before
// superstep 2 of the run it steers.
type innerRunMaster struct {
	t   *testing.T
	reg *obs.Registry
}

func (m innerRunMaster) BeforeSuperstep(mc *MasterControl) {
	if mc.Superstep() != 2 {
		return
	}
	e, err := New(6, &distProgram{adj: ring(6), dist: make([]int64, 6)}, Config{NumWorkers: 2, Registry: m.reg})
	if err == nil {
		_, err = e.Run()
	}
	if err != nil {
		m.t.Error(err)
	}
}

// TestSharedRegistryLeavesMetricsPerRun: runs publishing into one registry —
// a server's, under concurrent queries — each return their own Metrics,
// whatever another run adds to the registry while they execute; the
// registry counts them all.
func TestSharedRegistryLeavesMetricsPerRun(t *testing.T) {
	const n = 12
	run := func(reg *obs.Registry, master Master) *Metrics {
		e, err := New(n, &distProgram{adj: ring(n), dist: make([]int64, n)}, Config{NumWorkers: 3, Registry: reg, Master: master})
		if err != nil {
			t.Fatal(err)
		}
		m, err := e.Run()
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	solo := run(nil, nil)
	reg := obs.NewRegistry()
	shared := run(reg, innerRunMaster{t, reg})
	if g, w := ledger(shared), ledger(solo); g != w {
		t.Errorf("a run sharing its registry counted %v, alone %v", g, w)
	}
	if got, want := reg.Counter(obs.CSupersteps).Load(), int64(solo.Supersteps+6+1); got != want {
		t.Errorf("registry counted %d supersteps, want %d (both runs)", got, want)
	}
}

func TestMetricsStringRunsSuffix(t *testing.T) {
	single := &Metrics{Makespan: 10 * time.Millisecond}
	if s := single.String(); strings.Contains(s, "runs=") {
		t.Errorf("single-run String should omit runs summary: %s", s)
	}
	m := &Metrics{}
	m.Add(&Metrics{Makespan: 10 * time.Millisecond})
	m.Add(&Metrics{Makespan: 30 * time.Millisecond})
	m.Add(&Metrics{Makespan: 20 * time.Millisecond})
	s := m.String()
	for _, want := range []string{"runs=3", "mean_makespan=20ms", "max_makespan=30ms"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q, missing %q", s, want)
		}
	}
}
