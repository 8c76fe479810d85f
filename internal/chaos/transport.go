// Package chaos injects deterministic faults into the BSP substrate so the
// fault-tolerance layer (superstep checkpointing, panic isolation, transport
// retry and rollback-and-replay) can be proven under failure, not just
// asserted. GRAPHITE inherits this kind of testing from Giraph's Pregel
// substrate; our from-scratch engine has to earn it with an injection
// harness instead.
//
// Two injectors are provided: Transport, an in-memory worker mesh that
// drops, corrupts, duplicates and delays frames on a deterministic schedule,
// and FaultyProgram, a Program wrapper that panics on schedule. Both count
// what they injected so tests can assert the faults actually happened.
package chaos

import (
	"fmt"
	"math/rand"
	"sync"
	"time"
)

// FaultKind enumerates the transport fault types.
type FaultKind int

// The injectable transport faults.
const (
	// FaultDrop makes Send return an error without shipping the frame,
	// modelling a reset connection. The engine's bounded send retry absorbs
	// isolated drops.
	FaultDrop FaultKind = iota
	// FaultCorrupt replaces the frame with a poisoned header the receiver
	// is guaranteed to reject at decode time (as a checksum mismatch
	// would), forcing a superstep rollback.
	FaultCorrupt
	// FaultDuplicate ships the frame twice. The receiver detects the
	// straggler via the one-frame-per-peer BSP invariant and fails the
	// superstep.
	FaultDuplicate
	// FaultDelay sleeps before shipping; it perturbs timing only.
	FaultDelay
)

// TransportOptions parameterizes the fault schedule. Faults are injected on
// every Every-th Send call until the per-kind budgets are spent, in an order
// shuffled deterministically by Seed; the fault *count* is therefore exactly
// reproducible, while the victim (src, dst) pair depends on goroutine
// scheduling — which the rollback protocol must (and does) tolerate.
type TransportOptions struct {
	// Seed shuffles the fault order and draws delay durations.
	Seed int64
	// Drops, Corruptions, Duplicates and Delays are per-kind fault budgets.
	Drops       int
	Corruptions int
	Duplicates  int
	Delays      int
	// Every injects one fault per k-th Send call; zero means 5.
	Every int
	// DelayMax bounds each injected delay; zero means 2ms.
	DelayMax time.Duration
}

// FaultStats counts what a Transport actually injected.
type FaultStats struct {
	Drops       int
	Corruptions int
	Duplicates  int
	Delays      int
	Resets      int
}

// Faults returns the number of injected failures (delays excluded: they
// perturb timing without failing anything).
func (s FaultStats) Faults() int { return s.Drops + s.Corruptions + s.Duplicates }

// Transport is an in-memory engine.Transport mesh with scheduled fault
// injection. It implements engine.Resettable, so the engine can roll a
// failed exchange back and replay it: Reset discards every in-flight frame.
//
// The engine's exchange runs ship and receive as separate barriers, so at
// Recv time exactly one frame per peer must be queued; Recv enforces that
// invariant and reports missing or straggler frames as errors.
type Transport struct {
	n    int
	opts TransportOptions

	mu     sync.Mutex
	queues [][][][]byte // [src][dst] FIFO of frames
	plan   []FaultKind  // remaining faults, consumed front to back
	sends  int          // total Send calls, fault-schedule clock
	rng    *rand.Rand
	stats  FaultStats
	closed bool
}

// NewTransport builds an n-worker chaos mesh.
func NewTransport(n int, opts TransportOptions) (*Transport, error) {
	if n < 1 {
		return nil, fmt.Errorf("chaos: transport needs at least one worker")
	}
	if opts.Every <= 0 {
		opts.Every = 5
	}
	if opts.DelayMax <= 0 {
		opts.DelayMax = 2 * time.Millisecond
	}
	t := &Transport{
		n:      n,
		opts:   opts,
		queues: make([][][][]byte, n),
		rng:    rand.New(rand.NewSource(opts.Seed)),
	}
	for src := range t.queues {
		t.queues[src] = make([][][]byte, n)
	}
	for i := 0; i < opts.Drops; i++ {
		t.plan = append(t.plan, FaultDrop)
	}
	for i := 0; i < opts.Corruptions; i++ {
		t.plan = append(t.plan, FaultCorrupt)
	}
	for i := 0; i < opts.Duplicates; i++ {
		t.plan = append(t.plan, FaultDuplicate)
	}
	for i := 0; i < opts.Delays; i++ {
		t.plan = append(t.plan, FaultDelay)
	}
	t.rng.Shuffle(len(t.plan), func(i, j int) { t.plan[i], t.plan[j] = t.plan[j], t.plan[i] })
	return t, nil
}

// poisonFrame is an intentionally undecodable batch: a uvarint continuation
// byte with nothing following, so decodeBatch always rejects it.
var poisonFrame = []byte{0xFF}

// Send implements engine.Transport with scheduled fault injection.
func (t *Transport) Send(src, dst int, batch []byte) error {
	if src < 0 || src >= t.n || dst < 0 || dst >= t.n || src == dst {
		return fmt.Errorf("chaos: invalid send pair %d->%d", src, dst)
	}
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return fmt.Errorf("chaos: transport closed")
	}
	t.sends++
	fault := FaultKind(-1)
	if len(t.plan) > 0 && t.sends%t.opts.Every == 0 {
		fault = t.plan[0]
		t.plan = t.plan[1:]
	}
	frame := batch
	switch fault {
	case FaultDrop:
		t.stats.Drops++
		t.mu.Unlock()
		return fmt.Errorf("chaos: dropped frame %d->%d (injected)", src, dst)
	case FaultCorrupt:
		t.stats.Corruptions++
		frame = poisonFrame
	case FaultDuplicate:
		t.stats.Duplicates++
		t.queues[src][dst] = append(t.queues[src][dst], frame)
	case FaultDelay:
		t.stats.Delays++
		d := time.Duration(t.rng.Int63n(int64(t.opts.DelayMax)))
		t.mu.Unlock()
		time.Sleep(d)
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			return fmt.Errorf("chaos: transport closed")
		}
	}
	t.queues[src][dst] = append(t.queues[src][dst], frame)
	t.mu.Unlock()
	return nil
}

// Recv implements engine.Transport: exactly one frame per peer, ascending
// source order. A missing frame (dropped upstream) or a straggler frame
// (duplicate, or stale after an aborted exchange) fails the superstep.
func (t *Transport) Recv(dst int) ([][]byte, error) {
	if dst < 0 || dst >= t.n {
		return nil, fmt.Errorf("chaos: invalid recv worker %d", dst)
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.closed {
		return nil, fmt.Errorf("chaos: transport closed")
	}
	var out [][]byte
	for src := 0; src < t.n; src++ {
		if src == dst {
			continue
		}
		q := t.queues[src][dst]
		if len(q) == 0 {
			return nil, fmt.Errorf("chaos: missing frame %d->%d (dropped?)", src, dst)
		}
		out = append(out, q[0])
		t.queues[src][dst] = q[1:]
		if len(t.queues[src][dst]) > 0 {
			return nil, fmt.Errorf("chaos: straggler frame %d->%d (duplicate or stale)", src, dst)
		}
	}
	return out, nil
}

// Reset implements engine.Resettable: it discards every in-flight frame so
// a rolled-back exchange replays from a clean slate.
func (t *Transport) Reset() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	for src := range t.queues {
		for dst := range t.queues[src] {
			t.queues[src][dst] = nil
		}
	}
	t.stats.Resets++
	return nil
}

// Close implements engine.Transport.
func (t *Transport) Close() error {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.closed = true
	for src := range t.queues {
		for dst := range t.queues[src] {
			t.queues[src][dst] = nil
		}
	}
	return nil
}

// Stats returns what has been injected so far.
func (t *Transport) Stats() FaultStats {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.stats
}

// PendingFaults returns how many scheduled faults have not fired yet.
func (t *Transport) PendingFaults() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.plan)
}
