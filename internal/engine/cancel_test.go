package engine

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	ival "graphite/internal/interval"
	"graphite/internal/obs"
)

// pingProgram never converges: every vertex forwards a counter around a ring
// each superstep, so a run over it only ends by MaxSupersteps, a master halt
// or cancellation.
type pingProgram struct{ n int }

func (p *pingProgram) Init(ctx *Context) {
	ctx.Send((ctx.Vertex()+1)%p.n, ival.Universe, int64(0))
}

func (p *pingProgram) Run(ctx *Context, msgs []Message) {
	for _, m := range msgs {
		ctx.Send((ctx.Vertex()+1)%p.n, ival.Universe, m.Word().Int()+1)
	}
}

// cancelMaster cancels the run's context once the given superstep is reached;
// the engine must then abort at the barrier rather than via the master.
type cancelMaster struct {
	at     int
	cancel context.CancelFunc
}

func (m *cancelMaster) BeforeSuperstep(mc *MasterControl) {
	if mc.Superstep() >= m.at {
		m.cancel()
	}
}

func TestRunCanceledAtBarrier(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	n := 16
	reg := obs.NewRegistry()
	e, err := New(n, &pingProgram{n: n}, Config{
		NumWorkers: 4,
		Context:    ctx,
		Master:     &cancelMaster{at: 3, cancel: cancel},
		Registry:   reg,
	})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m, err := e.Run()
	if m != nil {
		t.Fatalf("Run returned metrics despite cancellation")
	}
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run error = %v, want ErrCanceled", err)
	}
	var vp *VertexPanicError
	if errors.As(err, &vp) {
		t.Fatalf("cancellation surfaced as a vertex panic: %v", err)
	}
	// Cancellation fired at the superstep-3 barrier, so the run stopped well
	// short of where an uncanceled ping ring would still be going.
	if got := reg.Counter(obs.CSupersteps).Load(); got < 2 || got > 4 {
		t.Errorf("supersteps before abort = %d, want 2..4", got)
	}
}

func TestRunCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	n := 8
	e, err := New(n, &pingProgram{n: n}, Config{NumWorkers: 2, Context: ctx})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.Run(); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Run error = %v, want ErrCanceled", err)
	}
}

// TestCancelNoGoroutineLeak aborts a run mid-flight and asserts the process
// settles back to its pre-run goroutine count: every worker joined its
// barrier and nothing is left polling the dead context.
func TestCancelNoGoroutineLeak(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		n := 64
		e, err := New(n, &pingProgram{n: n}, Config{NumWorkers: 8, Context: ctx})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		done := make(chan error, 1)
		go func() {
			_, err := e.Run()
			done <- err
		}()
		time.Sleep(2 * time.Millisecond)
		cancel()
		select {
		case err := <-done:
			if !errors.Is(err, ErrCanceled) {
				t.Fatalf("Run error = %v, want ErrCanceled", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Run did not return after cancel")
		}
	}
	// Give exited workers a moment to be reaped before counting.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if runtime.NumGoroutine() <= before {
			return
		}
		if time.Now().After(deadline) {
			break
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("goroutines: before=%d after=%d — canceled runs leaked", before, after)
	}
}
