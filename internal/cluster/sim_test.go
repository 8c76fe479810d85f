package cluster_test

// The protocol simulator: the coordinator's driver and three workers on one
// goroutine, over in-memory FIFO queues — one per direction of every
// connection, coordinator and mesh alike — and a fake clock, each worker with
// a real CheckpointStore in its own directory. A seeded scheduler picks the
// next delivery among the non-empty queues, so every interleaving TCP allows
// (FIFO per connection, no order across connections) is a seed away, and
// frames of an earlier epoch still in flight land after a recovery. One
// fault per schedule, enumerated rather than sampled:
//
//   - a worker crash after each frame it sends, over the whole run;
//   - a planted kill point (the crash plans of the kill-9 matrix), and the
//     torn checkpoint write at every generation;
//   - a lease expiry at every superstep: the worker goes silent, heartbeats
//     included, and the clock runs past the lease;
//   - a dead mesh link, for every ordered pair, from every superstep on.
//
// A dead worker is replaced at once on its directory, as the chaos fleet
// respawns one. Every schedule must end bit-identical to core.Run at three
// workers — the states and the seven counts — and a failure prints a
// one-line repro.

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"graphite/internal/algorithms"
	"graphite/internal/cluster"
	"graphite/internal/core"
	"graphite/internal/obs"
	"graphite/internal/tgraph"
)

const (
	simLease  = time.Second
	simRejoin = 10 * time.Second
	simTick   = time.Millisecond // fake time one delivery takes
)

var simEpoch = time.Date(2020, 1, 1, 0, 0, 0, 0, time.UTC)

var simAlgos = []struct {
	name string
	p    algorithms.Params
}{
	{"sssp", algorithms.Params{Source: 0}},
	{"eat", algorithms.Params{Source: 0}},
	{"pr", algorithms.Params{}},
	{"scc", algorithms.Params{}},
}

func simParams(algo string) algorithms.Params {
	for _, a := range simAlgos {
		if a.name == algo {
			return a.p
		}
	}
	panic("sim: unknown algorithm " + algo)
}

type faultKind int

const (
	faultNone     faultKind = iota
	faultCrash              // slot's first worker dies after its n-th frame
	faultKill               // slot's first worker dies at kill point (phase, step)
	faultHang               // slot's first worker goes silent on receiving step
	faultDeadLink           // slot's mesh link to dst dies when slot receives step
)

// schedule is one simulated run: a program, the scheduler's seed and at most
// one fault. inject, when set, is delivered on slot's connection as if its
// worker had sent it (slot -1: on a connection that never said hello), right
// after the coordinator first broadcasts step.
type schedule struct {
	algo   string
	seed   int64
	kind   faultKind
	slot   int
	n      int
	phase  string
	step   int
	dst    int
	inject *simFrame
}

func (sc schedule) String() string {
	fault := "no fault"
	switch sc.kind {
	case faultCrash:
		fault = fmt.Sprintf("worker %d crashes after frame %d", sc.slot, sc.n)
	case faultKill:
		fault = fmt.Sprintf("worker %d killed at %s:%d", sc.slot, sc.phase, sc.step)
	case faultHang:
		fault = fmt.Sprintf("worker %d silent from superstep %d", sc.slot, sc.step)
	case faultDeadLink:
		fault = fmt.Sprintf("mesh link %d→%d dead from superstep %d", sc.slot, sc.dst, sc.step)
	}
	if sc.inject != nil {
		fault = fmt.Sprintf("frame %d (%d bytes) injected on worker %d's connection after superstep %d's broadcast",
			sc.inject.ftype, len(sc.inject.payload), sc.slot, sc.step)
	}
	return fmt.Sprintf("%s seed %d: %s", sc.algo, sc.seed, fault)
}

// simCrash is the panic a crashing worker unwinds with; the simulator
// recovers it where it called into the worker.
type simCrash struct{}

type simFrame struct {
	ftype   byte
	payload []byte
	eof     bool
}

// queue is one direction of one connection.
type queue struct {
	items []simFrame
	open  func() bool // the receiver can read now
	to    func(simFrame)
}

// node is one worker process: one incarnation of a slot.
type node struct {
	s          *sim
	slot, inc  int
	addr       string
	w          *cluster.Worker
	conn       *sconn
	dead, hung bool
	done       bool
	sent       int // frames sent, to the coordinator and to peers
	reads      int // clock reads
	hbEvery    time.Duration
	nextBeat   time.Time
	outs       map[int]*node // shard → the peer this incarnation dialed
}

// sconn is one worker↔coordinator connection.
type sconn struct {
	id       int
	n        *node
	up, down *queue
	closed   bool // by the coordinator
}

type sim struct {
	sc     schedule
	rng    *rand.Rand
	now    time.Time
	tick   time.Time
	coord  *cluster.Coordinator
	drv    *cluster.Driver
	dirs   []string
	conns  []*sconn
	nodes  []*node
	queues []*queue
	mesh   map[[2]*node]*queue
	byAddr map[string]*node
	dead   map[[2]int]bool // mesh links down, by slot
	incs   []int
	reborn []int // slots waiting for a replacement

	err       error
	epoch     int // the coordinator's latest epoch, as its rollbacks say
	broadcast int // the highest superstep broadcast in epoch 0
	injected  bool
	stale     int             // deliveries of an earlier epoch's data
	workerErr []string        // why workers exited, for the repro line
	frames    map[byte][]byte // the first frame of each type sent
	traces    []*obs.Recorder // each slot's trace, shared by its incarnations as a worker's trace file is
}

var discard = slog.New(slog.NewTextHandler(io.Discard, nil))

// newSim builds the coordinator and the worker directories of one schedule.
func newSim(tb testing.TB, sc schedule, cfg cluster.Config) *sim {
	cfg.Workers, cfg.Graph, cfg.Algo, cfg.Params = testWorkers, "transit", sc.algo, simParams(sc.algo)
	cfg.Lease, cfg.RejoinTimeout, cfg.Logger = simLease, simRejoin, discard
	coord, err := cluster.New(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	s := &sim{
		sc: sc, rng: rand.New(rand.NewSource(sc.seed)), now: simEpoch, tick: simEpoch.Add(simLease / 2),
		coord: coord, mesh: map[[2]*node]*queue{}, byAddr: map[string]*node{}, dead: map[[2]int]bool{},
		incs: make([]int, testWorkers), frames: map[byte][]byte{},
	}
	s.drv = cluster.NewDriver(coord, s)
	base := tb.TempDir()
	for i := 0; i < testWorkers; i++ {
		s.dirs = append(s.dirs, filepath.Join(base, fmt.Sprintf("w%d", i)))
		s.traces = append(s.traces, &obs.Recorder{})
	}
	return s
}

// run drives the schedule to its end: the driver's result or error.
func (s *sim) run() (*core.Result, error) {
	for slot := range s.dirs {
		s.spawn(slot)
	}
	for steps := 0; ; steps++ {
		switch {
		case s.err != nil:
			return nil, s.err
		case s.drv.Result() != nil:
			return s.drv.Result(), nil
		case steps > 100_000 || s.now.Sub(simEpoch) > simRejoin:
			return nil, fmt.Errorf("sim: no end after %d deliveries and %v", steps, s.now.Sub(simEpoch))
		case len(s.reborn) > 0:
			slot := s.reborn[0]
			s.reborn = s.reborn[1:]
			s.spawn(slot)
			continue
		}
		s.advance(s.now.Add(simTick))
		if s.err != nil || s.drv.Result() != nil {
			continue
		}
		var ready []*queue
		for _, q := range s.queues {
			if len(q.items) > 0 && q.open() {
				ready = append(ready, q)
			}
		}
		if len(ready) == 0 {
			at, _ := s.nextTimer()
			s.advance(at)
			continue
		}
		q := ready[s.rng.Intn(len(ready))]
		f := q.items[0]
		q.items = q.items[1:]
		q.to(f)
		if in := s.sc.inject; in != nil && !s.injected && s.broadcast >= s.sc.step && s.err == nil {
			s.injected = true
			if c := s.speaker(s.sc.slot); c != nil {
				s.drvErr(s.drv.Frame(c.id, in.ftype, bytes.Clone(in.payload)))
			}
		}
	}
}

// speaker is the open connection of slot's live worker, or for slot -1 a
// new connection with no worker behind it, which never says hello.
func (s *sim) speaker(slot int) *sconn {
	if slot < 0 {
		c := &sconn{id: len(s.conns), n: &node{s: s, done: true}}
		c.up, c.down = &queue{}, &queue{}
		s.conns = append(s.conns, c)
		s.drvErr(s.drv.Connect(c.id, "stranger"))
		return c
	}
	for i := len(s.nodes) - 1; i >= 0; i-- {
		if n := s.nodes[i]; n.slot == slot && !n.dead && !n.done && !n.conn.closed {
			return n.conn
		}
	}
	return nil
}

func (s *sim) drvErr(err error) {
	if err != nil && s.err == nil {
		s.err = err
	}
}

// nextTimer is the earliest of the coordinator's lease tick and the live
// workers' heartbeats.
func (s *sim) nextTimer() (time.Time, func()) {
	at, fire := s.tick, func() {
		s.tick = s.tick.Add(simLease / 2)
		s.drvErr(s.drv.Tick())
	}
	for _, n := range s.nodes {
		if n.hbEvery > 0 && !n.dead && !n.hung && !n.done && n.nextBeat.Before(at) {
			n := n
			at, fire = n.nextBeat, func() {
				n.nextBeat = n.nextBeat.Add(n.hbEvery)
				if !n.conn.closed {
					n.conn.up.items = append(n.conn.up.items, simFrame{ftype: cluster.FHeartbeat})
				}
			}
		}
	}
	return at, fire
}

// advance moves the clock to t, firing every timer due on the way.
func (s *sim) advance(t time.Time) {
	for s.err == nil && s.drv.Result() == nil {
		at, fire := s.nextTimer()
		if at.After(t) {
			break
		}
		s.now = at
		fire()
	}
	if t.After(s.now) {
		s.now = t
	}
}

func (s *sim) newQueue(open func() bool, to func(simFrame)) *queue {
	q := &queue{open: open, to: to}
	s.queues = append(s.queues, q)
	return q
}

// spawn starts a worker on slot's directory: it connects and says hello.
func (s *sim) spawn(slot int) {
	if s.incs[slot] > 20 {
		s.drvErr(fmt.Errorf("sim: worker %d died %d times", slot, s.incs[slot]))
		return
	}
	n := &node{s: s, slot: slot, inc: s.incs[slot]}
	s.incs[slot]++
	n.addr = fmt.Sprintf("sim-w%d.%d", slot, n.inc)
	n.w = cluster.NewWorker(s.dirs[slot], n, s.traces[slot], discard)
	c := &sconn{id: len(s.conns), n: n}
	c.up = s.newQueue(func() bool { return !c.closed }, func(f simFrame) {
		if f.eof {
			s.drvErr(s.drv.Lost(c.id, io.EOF))
		} else {
			s.drvErr(s.drv.Frame(c.id, f.ftype, f.payload))
		}
	})
	c.down = s.newQueue(func() bool { return !n.dead && !n.hung && !n.done }, func(f simFrame) { s.toWorker(n, f) })
	n.conn = c
	s.conns = append(s.conns, c)
	s.nodes = append(s.nodes, n)
	s.byAddr[n.addr] = n
	s.drvErr(s.drv.Connect(c.id, n.addr))
	s.call(n, func() error { return n.w.Hello(n.addr) })
}

// toWorker delivers one coordinator frame, first letting the schedule's
// superstep-triggered fault fire.
func (s *sim) toWorker(n *node, f simFrame) {
	if f.eof {
		s.die(n, "coordinator closed the connection")
		return
	}
	if f.ftype == cluster.FStep {
		var st struct{ Superstep int }
		_ = json.Unmarshal(f.payload, &st)
		first := n.inc == 0 && n.slot == s.sc.slot && st.Superstep == s.sc.step
		switch {
		case s.sc.kind == faultHang && first:
			n.hung = true // wedged: reads nothing more, sends nothing, renews nothing
			return
		case s.sc.kind == faultDeadLink && n.slot == s.sc.slot && st.Superstep == s.sc.step:
			s.dead[[2]int{s.sc.slot, s.sc.dst}] = true
		}
	}
	s.call(n, func() error {
		done, err := n.w.Frame(f.ftype, f.payload)
		n.done = done
		return err
	})
}

// call runs one step of a worker: a crash or an error ends the process.
func (s *sim) call(n *node, step func() error) {
	defer func() {
		if r := recover(); r != nil {
			if _, ok := r.(simCrash); !ok {
				panic(r)
			}
			s.die(n, "crashed")
		}
	}()
	if err := step(); err != nil {
		s.die(n, err.Error())
	}
}

// die ends a worker process: what it sent still arrives, then EOF; what was
// on its way to it is lost; a replacement starts on its directory.
func (s *sim) die(n *node, why string) {
	if n.dead || n.done {
		return
	}
	n.dead = true
	s.workerErr = append(s.workerErr, fmt.Sprintf("w%d.%d: %s", n.slot, n.inc, why))
	if !n.conn.closed {
		n.conn.up.items = append(n.conn.up.items, simFrame{eof: true})
	}
	n.conn.down.items = nil
	for key, q := range s.mesh {
		if key[1] == n {
			q.items = nil
		}
	}
	s.reborn = append(s.reborn, n.slot)
}

// capture keeps the first frame of each type, as FuzzDriverFrames' seeds.
func (s *sim) capture(ftype byte, p []byte) []byte {
	p = bytes.Clone(p)
	if _, ok := s.frames[ftype]; !ok {
		s.frames[ftype] = p
	}
	return p
}

// Send, Close and Now are the coordinator's I/O.
func (s *sim) Send(conn int, ftype byte, payload []byte) error {
	c := s.conns[conn]
	p := s.capture(ftype, payload)
	switch ftype {
	case cluster.FStep:
		var st struct{ Epoch, Superstep int }
		_ = json.Unmarshal(p, &st)
		if st.Epoch == 0 && st.Superstep > s.broadcast {
			s.broadcast = st.Superstep
		}
	case cluster.FRollback:
		var rb struct{ Epoch int }
		_ = json.Unmarshal(p, &rb)
		s.epoch = rb.Epoch
	}
	if c.n.dead || c.n.done {
		return s.lostWrite()
	}
	c.down.items = append(c.down.items, simFrame{ftype: ftype, payload: p})
	return nil
}

// lostWrite is a write to a process that is gone: TCP may fail it, or take
// it into a buffer nobody reads.
func (s *sim) lostWrite() error {
	if s.rng.Intn(2) == 0 {
		return errors.New("sim: broken pipe")
	}
	return nil
}

func (s *sim) Close(conn int) {
	c := s.conns[conn]
	c.closed = true
	c.up.items = nil
	c.down.items = append(c.down.items, simFrame{eof: true})
	if c.n.hung {
		s.die(c.n, "silent past its lease")
	}
}

func (s *sim) Now() time.Time { return s.now }

// Send, SendPeer, DialPeers, Heartbeat, Now and Kill are a worker's I/O.
func (n *node) Send(ftype byte, payload []byte) error {
	p := n.s.capture(ftype, payload)
	if n.conn.closed {
		return n.s.lostWrite()
	}
	n.conn.up.items = append(n.conn.up.items, simFrame{ftype: ftype, payload: p})
	n.sentOne()
	return nil
}

func (n *node) SendPeer(dst int, payload []byte) error {
	s, peer := n.s, n.outs[dst]
	switch {
	case peer == nil:
		return fmt.Errorf("sim: no mesh link to shard %d", dst)
	case s.dead[[2]int{n.slot, peer.slot}]:
		n.outs[dst] = nil
		return fmt.Errorf("sim: mesh link to shard %d down", dst)
	case peer.dead || peer.done:
		n.outs[dst] = nil
		return s.lostWrite()
	}
	p := s.capture(cluster.FData, payload)
	q := s.mesh[[2]*node{n, peer}]
	if q == nil {
		q = s.newQueue(func() bool { return !peer.dead && !peer.hung && !peer.done }, func(f simFrame) {
			if epoch, _, _, _, err := cluster.DataHeader(f.payload); err == nil && epoch < s.epoch {
				s.stale++
			}
			s.call(peer, func() error { return peer.w.Mesh(f.payload) })
		})
		s.mesh[[2]*node{n, peer}] = q
	}
	q.items = append(q.items, simFrame{ftype: cluster.FData, payload: p})
	n.sentOne()
	return nil
}

// sentOne counts a frame, and crashes the worker the schedule crashes here.
func (n *node) sentOne() {
	n.sent++
	if sc := n.s.sc; sc.kind == faultCrash && n.inc == 0 && n.slot == sc.slot && n.sent == sc.n {
		panic(simCrash{})
	}
}

func (n *node) DialPeers(self, epoch int, addrs []string) error {
	n.outs = map[int]*node{}
	for shard, addr := range addrs {
		peer := n.s.byAddr[addr]
		if shard != self && peer != nil && !peer.dead && !peer.done && !n.s.dead[[2]int{n.slot, peer.slot}] {
			n.outs[shard] = peer
		}
	}
	return nil
}

func (n *node) Heartbeat(every time.Duration) {
	n.hbEvery, n.nextBeat = every, n.s.now.Add(every)
}

// Now is the worker's clock: the fake clock plus a microsecond per read, so
// every clock a worker's record carries is non-zero and the trace merge has
// values to compare.
func (n *node) Now() time.Time {
	n.reads++
	return n.s.now.Add(time.Duration(n.reads) * time.Microsecond)
}

func (n *node) Kill(phase string, superstep int) {
	if sc := n.s.sc; sc.kind == faultKill && n.inc == 0 && n.slot == sc.slot && sc.phase == phase && sc.step == superstep {
		panic(simCrash{})
	}
}

// reference is core.Run at the simulator's width, once per program.
var reference sync.Map

func simReference(tb testing.TB, algo string) *core.Result {
	if r, ok := reference.Load(algo); ok {
		return r.(*core.Result)
	}
	r := directRun(tb.(*testing.T), tgraph.TransitExample(), algo, simParams(algo), testWorkers)
	reference.Store(algo, r)
	return r
}

// diffResult says how got differs from want: a state or one of the seven
// counts; "" when they are identical.
func diffResult(g *tgraph.Graph, got, want *core.Result) string {
	for i := 0; i < g.NumVertices(); i++ {
		gs, ws := got.State(i), want.State(i)
		if (gs == nil) != (ws == nil) || gs != nil && !reflect.DeepEqual(gs.Parts(), ws.Parts()) {
			return fmt.Sprintf("vertex %d: %v, core.Run %v", i, gs, ws)
		}
	}
	if g, w := runCounts(got.Metrics), runCounts(want.Metrics); g != w {
		return fmt.Sprintf("counts %v, core.Run %v", g, w)
	}
	return ""
}

// merged says why the run's traces do not reconcile — the coordinator's
// against its workers', one row per superstep of the result — or "".
func (s *sim) merged(coord *obs.Recorder, res *core.Result) string {
	var workers [][]obs.Event
	for _, tr := range s.traces {
		workers = append(workers, tr.Events())
	}
	ct, err := obs.MergeClusterTrace(coord.Events(), workers)
	switch {
	case err != nil:
		return err.Error()
	case len(ct.Steps) != res.Metrics.Supersteps:
		return fmt.Sprintf("merged trace has %d supersteps, the run %d", len(ct.Steps), res.Metrics.Supersteps)
	}
	return ""
}

// check runs one schedule and returns its failure as a one-line repro, or
// "" when it ends identical to core.Run and its traces merge.
func check(t *testing.T, sc schedule, index int) (string, *sim) {
	rec := &obs.Recorder{}
	s := newSim(t, sc, cluster.Config{Tracer: rec})
	res, err := s.run()
	fail := ""
	switch {
	case err != nil:
		fail = err.Error()
	default:
		fail = diffResult(tgraph.TransitExample(), res, simReference(t, sc.algo))
	}
	if fail == "" {
		fail = s.merged(rec, res)
	}
	if fail == "" {
		return "", s
	}
	return fmt.Sprintf("sim: %s [schedule %d]: %s (workers: %s)",
		sc, index, fail, strings.Join(s.workerErr, "; ")), s
}

// simShape is what a fault-free run of a program looks like: how many frames
// each worker sends and how many supersteps it runs.
func simShape(t *testing.T, algo string) (frames []int, supersteps int) {
	msg, s := check(t, schedule{algo: algo, seed: 1}, 0)
	if msg != "" {
		t.Fatal(msg)
	}
	for _, n := range s.nodes {
		frames = append(frames, n.sent)
	}
	return frames, s.coord.Report().Supersteps
}

// enumerate lists one program's schedules: interleavings, a crash after every
// frame of every worker under two interleavings, every kill point, the torn write of every
// generation, a lease expiry at every superstep, a dead link for every
// ordered pair at every superstep.
func enumerate(t *testing.T, algo string) []schedule {
	frames, steps := simShape(t, algo)
	var out []schedule
	add := func(sc schedule) {
		sc.algo, sc.seed = algo, int64(len(out)+1)
		out = append(out, sc)
	}
	for i := 0; i < 32; i++ {
		add(schedule{})
	}
	for slot, n := range frames {
		for k := 1; k <= 2*n; k++ { // each frame under two interleavings
			add(schedule{kind: faultCrash, slot: slot, n: (k + 1) / 2})
		}
	}
	for slot := range frames {
		for s := 0; s <= steps; s += cluster.DefaultCheckpointEvery {
			add(schedule{kind: faultKill, slot: slot, phase: "checkpoint", step: s})
		}
		for s := 1; s <= steps; s++ {
			for _, phase := range []string{"peersend", "compute", "barrier"} {
				add(schedule{kind: faultKill, slot: slot, phase: phase, step: s})
			}
			add(schedule{kind: faultHang, slot: slot, step: s})
			for dst := range frames {
				if dst != slot {
					add(schedule{kind: faultDeadLink, slot: slot, dst: dst, step: s})
				}
			}
		}
	}
	return out
}

// TestSimulatorEnumeratesFailures runs every schedule of enumerate for SSSP,
// EAT, PR and SCC; under -short, every fifth.
func TestSimulatorEnumeratesFailures(t *testing.T) {
	var total, stale atomic.Int64
	start := time.Now()
	for _, a := range simAlgos {
		t.Run(a.name, func(t *testing.T) {
			all := enumerate(t, a.name)
			var mu sync.Mutex
			var wg sync.WaitGroup
			work := make(chan int)
			for i := 0; i < runtime.GOMAXPROCS(0)+1; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for i := range work {
						msg, s := check(t, all[i], i)
						total.Add(1)
						stale.Add(int64(s.stale))
						if msg != "" {
							mu.Lock()
							t.Error(msg)
							mu.Unlock()
						}
					}
				}()
			}
			for i := range all {
				if !testing.Short() || i%5 == 0 {
					work <- i
				}
			}
			close(work)
			wg.Wait()
		})
	}
	t.Logf("%d schedules in %v; %d deliveries of an earlier epoch's batches", total.Load(),
		time.Since(start).Round(time.Millisecond), stale.Load())
	if !testing.Short() && total.Load() < 1000 {
		t.Errorf("only %d schedules", total.Load())
	}
	if stale.Load() == 0 {
		t.Error("no schedule delivered a batch of an earlier epoch")
	}
}

// TestSimLeaseRecovery wedges one worker on receiving superstep 3: it stops
// reading, sending and heartbeating, and the fake clock runs past the lease.
// The coordinator must expire it, roll the survivors back to generation 1,
// admit a replacement on the same directory and finish with core.Run's
// answer — with the trace, attribution and lease gauges to show for it.
func TestSimLeaseRecovery(t *testing.T) {
	rec := &obs.Recorder{}
	reg := obs.NewRegistry()
	sc := schedule{algo: "sssp", seed: 1, kind: faultHang, slot: 2, step: 3}
	s := newSim(t, sc, cluster.Config{Tracer: rec, Registry: reg, Span: "lease-test-span"})
	res, err := s.run()
	if err != nil {
		t.Fatalf("%s: %v", sc, err)
	}
	if d := diffResult(tgraph.TransitExample(), res, simReference(t, "sssp")); d != "" || res.Metrics.Recoveries != 1 {
		t.Errorf("%s: %s, %d recoveries", sc, d, res.Metrics.Recoveries)
	}
	coord := s.coord
	rep := coord.Report()
	if len(rep.Recoveries) != 1 {
		t.Fatalf("want exactly one recovery, got %+v", rep.Recoveries)
	}
	r := rep.Recoveries[0]
	if r.Failed != 3 || r.Gen != 1 || r.ResumeAt != 3 {
		t.Errorf("recovery shape: %+v (want failed=3 gen=1 resume_at=3)", r)
	}
	if r.MTTR <= 0 || r.Detect <= simLease || r.RestoredBytes <= 0 {
		t.Errorf("recovery timings not recorded: %+v", r)
	}
	lost := 0
	for _, e := range rec.Events() {
		if l, ok := e.(obs.WorkerLost); ok && strings.HasPrefix(l.Reason, "lease expired") {
			lost++
		}
	}
	if rec.Count("worker_lost") != 1 || lost != 1 || rec.Count("cluster_recovery") != 1 {
		t.Errorf("trace events: lost=%d (to the lease %d) recovery=%d",
			rec.Count("worker_lost"), lost, rec.Count("cluster_recovery"))
	}
	joins := 0
	for _, e := range rec.Events() {
		if j, ok := e.(obs.WorkerJoin); ok && j.Rejoin {
			joins++
		}
	}
	if joins != 1 {
		t.Errorf("want one rejoin join event, got %d", joins)
	}
	// The configured span reaches every span-carrying trace event.
	if coord.Span() != "lease-test-span" {
		t.Errorf("coordinator span = %q, want the configured one", coord.Span())
	}
	for _, e := range rec.Events() {
		spans := []string{"lease-test-span"}
		switch ev := e.(type) {
		case obs.RunStart:
			spans = []string{ev.Span}
		case obs.ClusterStep:
			spans = []string{ev.Span}
			for _, st := range ev.Shards {
				spans = append(spans, st.Span)
			}
		}
		for _, span := range spans {
			if span != "lease-test-span" {
				t.Errorf("%T carries span %q", e, span)
			}
		}
	}
	if msg := s.merged(rec, res); msg != "" {
		t.Errorf("%s: %s", sc, msg)
	}
	// One attribution row per executed superstep (replays included), each
	// with a timing per shard.
	attr := coord.Attribution()
	if len(attr) != rep.Supersteps {
		t.Errorf("attribution rows = %d, executed supersteps = %d", len(attr), rep.Supersteps)
	}
	for _, a := range attr {
		if len(a.Shards) != testWorkers || a.WallNS <= 0 || a.SkewMilli < 1000 {
			t.Errorf("superstep %d attribution not measured: %+v", a.Superstep, a)
		}
	}
	// Every worker reported at the final barrier: no heartbeat missed, and
	// the quietest lease strictly positive.
	if rem := reg.Gauge(obs.GClusterLeaseRemainingMS).Load(); rem <= 0 || rem > simLease.Milliseconds() {
		t.Errorf("lease_remaining_ms = %d, want (0, %d]", rem, simLease.Milliseconds())
	}
	if missed := reg.Gauge(obs.GClusterMissedHeartbeats).Load(); missed != 0 {
		t.Errorf("missed_heartbeats = %d after a healthy finish, want 0", missed)
	}
	if err := coord.Ready(); err != nil {
		t.Errorf("finished cluster not ready: %v", err)
	}
}

// TestSimKillMatrixRows runs the kill-9 rows the process matrix no longer
// spawns as simulator schedules: the same crash plan on worker 1, under
// eight interleavings each. Each must recover once and end identical.
func TestSimKillMatrixRows(t *testing.T) {
	for _, row := range []struct {
		name, algo, phase string
		step              int
	}{
		{"pr-kill-compute", "pr", "compute", 3},
		{"pr-kill-peersend", "pr", "peersend", 2},
		{"eat-kill-compute", "eat", "compute", 3},
		// The first superstep of SCC's new phase: the replay resumes from
		// generation 1, whose phase is the old one.
		{"scc-kill-compute", "scc", "compute", 3},
		// After the report that closes superstep 3: its merged aggregates
		// must rewind with the phase, or the replayed master keeps the old
		// phase a superstep too long and the counts differ.
		{"scc-kill-barrier", "scc", "barrier", 3},
	} {
		t.Run(row.name, func(t *testing.T) {
			for seed := int64(1); seed <= 8; seed++ {
				sc := schedule{algo: row.algo, seed: seed, kind: faultKill, slot: 1, phase: row.phase, step: row.step}
				msg, s := check(t, sc, int(seed))
				if msg != "" {
					t.Error(msg)
				} else if rec := s.coord.Report().Recoveries; len(rec) != 1 {
					t.Errorf("sim: %s: recoveries %+v", sc, rec)
				}
			}
		})
	}
}

// FuzzDriverFrames pauses a simulated SSSP run once superstep 2 is
// broadcast, delivers one arbitrary frame on worker 1's connection as if
// worker 1 had sent it, and lets the run finish. FuzzClusterFrames fuzzes the
// decoders; this fuzzes what the driver's handlers do with what they decode.
// The driver must not panic, and within the fake clock's RejoinTimeout the
// run must end identical to core.Run or with an error of the driver's.
func FuzzDriverFrames(f *testing.F) {
	for _, fr := range driverSeeds(f) {
		f.Add(fr.ftype, fr.payload)
	}
	f.Fuzz(func(t *testing.T, ftype byte, payload []byte) {
		sc := schedule{algo: "sssp", seed: 1, slot: 1, step: 2, inject: &simFrame{ftype: ftype, payload: payload}}
		res, err := newSim(t, sc, cluster.Config{}).run()
		switch {
		case err != nil && strings.HasPrefix(err.Error(), "sim:"):
			t.Fatalf("%s: %v", sc, err)
		case err != nil:
			return
		}
		if d := diffResult(tgraph.TransitExample(), res, simReference(t, "sssp")); d != "" {
			t.Fatalf("%s: %s", sc, d)
		}
	})
}

// driverSeeds are one valid frame of every type, captured from runs — a
// clean one, one with a recovery (rollback) and one with a dead link
// (relayed data) — plus a worker's fatal error, a mesh hello, and a barrier
// report for the superstep in flight forged for each shard (one of them is
// worker 1's, and arrives before worker 1's own) and for none.
func driverSeeds(tb testing.TB) []simFrame {
	var out []simFrame
	seen := map[byte]bool{}
	for _, sc := range []schedule{
		{algo: "sssp", seed: 1},
		{algo: "sssp", seed: 1, kind: faultKill, slot: 1, phase: "compute", step: 2},
		{algo: "sssp", seed: 1, kind: faultDeadLink, slot: 1, dst: 2, step: 1},
	} {
		s := newSim(tb, sc, cluster.Config{})
		if _, err := s.run(); err != nil {
			tb.Fatalf("%s: %v", sc, err)
		}
		for ftype := cluster.FHello; ftype <= cluster.FMeshHello; ftype++ {
			if p, ok := s.frames[ftype]; ok && !seen[ftype] {
				seen[ftype] = true
				out = append(out, simFrame{ftype: ftype, payload: p})
			}
		}
	}
	out = append(out,
		simFrame{ftype: cluster.FError, payload: []byte(`{"shard":1,"msg":"injected"}`)},
		simFrame{ftype: cluster.FMeshHello, payload: []byte(`{"shard":1,"epoch":0}`)},
		simFrame{ftype: cluster.FResult, payload: []byte{0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 1}})
	for shard := -1; shard < testWorkers; shard++ {
		out = append(out, simFrame{ftype: cluster.FStepDone, payload: forgedReport(shard)})
	}
	return out
}

// forgedReport is a barrier report for superstep 2 of epoch 0 from shard,
// which no worker sent.
func forgedReport(shard int) []byte {
	return []byte(fmt.Sprintf(`{"superstep":2,"active":0,"compute_calls":1,`+
		`"step":{"superstep":2,"shard":%d,"epoch":0},"ckpt_gen":1}`, shard))
}

// TestSimStrangerFrames delivers each of FuzzDriverFrames' seeds on a
// connection that never said hello: whatever it says, it speaks for no
// shard, so the run must end as if it had never connected.
func TestSimStrangerFrames(t *testing.T) {
	for i, fr := range driverSeeds(t) {
		fr := fr
		sc := schedule{algo: "sssp", seed: int64(i + 1), slot: -1, step: 2, inject: &fr}
		msg, s := check(t, sc, i)
		if msg != "" {
			t.Error(msg)
		} else if rec := s.coord.Report().Recoveries; len(rec) != 0 {
			t.Errorf("sim: %s: a stranger caused recoveries %+v", sc, rec)
		}
	}
}

// TestSimForgedBarrierReport delivers, on worker 1's connection, a barrier
// report for its own shard that worker 1 never sent, before its real one.
// If it closes the superstep, the real one arrives for a closed superstep of
// the same epoch: the run must end in an error then, never with the forged
// counts in its totals.
func TestSimForgedBarrierReport(t *testing.T) {
	for seed := int64(1); seed <= 30; seed++ {
		for shard := 0; shard < testWorkers; shard++ {
			forged := &simFrame{ftype: cluster.FStepDone, payload: forgedReport(shard)}
			sc := schedule{algo: "pr", seed: seed, slot: 1, step: 2, inject: forged}
			res, err := newSim(t, sc, cluster.Config{}).run()
			if err == nil {
				if d := diffResult(tgraph.TransitExample(), res, simReference(t, "pr")); d != "" {
					t.Errorf("sim: %s: %s", sc, d)
				}
			} else if strings.HasPrefix(err.Error(), "sim:") {
				t.Errorf("sim: %s: %v", sc, err)
			}
		}
	}
}
