package cluster

// The shell: sockets, goroutines and the wall clock. The coordinator's driver
// and the worker's wrk make every protocol decision; this file is how they
// reach the world in a real process — coordIO and workerIO over TCP — and it
// keeps no protocol state: connection tables, the heartbeat goroutine, the
// mesh endpoint (mesh.go) and the planted kill point.

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"os"
	"sync"
	"syscall"
	"time"

	"graphite/internal/core"
	"graphite/internal/engine"
)

// sockets is coordIO over TCP. It is touched only by Serve's goroutine, the
// one that calls the driver.
type sockets struct {
	lease time.Duration
	conns map[int]net.Conn
}

// send bounds each write by a lease-sized deadline: a worker that stops
// reading is declared dead instead of wedging the driver.
func (s *sockets) send(id int, ftype byte, payload []byte) error {
	c := s.conns[id]
	_ = c.SetWriteDeadline(time.Now().Add(s.lease))
	return writeConnFrame(c, ftype, payload)
}

func (s *sockets) close(id int) {
	s.conns[id].Close()
	delete(s.conns, id)
}

func (s *sockets) now() time.Time { return time.Now() }

// Serve accepts workers on ln and drives the run to completion, returning
// the assembled result. It blocks; ln is closed on return.
func (c *Coordinator) Serve(ln net.Listener) (*core.Result, error) {
	defer ln.Close()
	accepted := make(chan net.Conn)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return // listener closed by Serve's return or Close
			}
			select {
			case accepted <- conn:
			case <-c.quit:
				conn.Close()
				return
			}
		}
	}()
	s := &sockets{lease: c.cfg.Lease, conns: map[int]net.Conn{}}
	defer func() {
		for _, conn := range s.conns {
			conn.Close()
		}
	}()
	defer c.Close()                // unblocks the accept loop and the readers first
	events := make(chan event, 64) // readers run a few frames per worker ahead of the driver
	ticker := time.NewTicker(c.cfg.Lease / 2)
	defer ticker.Stop()
	d := newDriver(c, s)
	for next := 0; d.result == nil; {
		var ev event
		select {
		case <-c.quit:
			return nil, errors.New("cluster: coordinator closed")
		case <-ticker.C:
			ev = event{kind: evTick}
		case conn := <-accepted:
			s.conns[next] = conn
			go readConn(next, conn, events, c.quit)
			ev = event{kind: evConn, conn: next, addr: conn.RemoteAddr().String()}
			next++
		case ev = <-events:
		}
		if err := d.on(ev); err != nil {
			return nil, err
		}
	}
	return d.result, nil
}

// readConn turns one connection into events until it fails, for either side.
func readConn(id int, conn net.Conn, events chan<- event, quit <-chan struct{}) {
	for {
		ftype, payload, err := readConnFrame(conn)
		ev := event{kind: evFrame, conn: id, ftype: ftype, payload: payload}
		if err != nil {
			ev = event{kind: evDead, conn: id, err: err}
		}
		select {
		case events <- ev:
		case <-quit:
			return
		}
		if err != nil {
			return
		}
	}
}

// wsock is workerIO over TCP: the coordinator connection, the mesh, the
// heartbeat goroutine and the planted crash. ctx ends with RunWorker.
type wsock struct {
	ctx     context.Context
	conn    net.Conn
	wmu     sync.Mutex // serializes frame writes (the frame loop vs the heartbeat)
	mesh    *mesh
	backoff time.Duration
	crash   CrashPlan
	log     *slog.Logger
}

func (s *wsock) send(ftype byte, payload []byte) error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	return writeConnFrame(s.conn, ftype, payload)
}

func (s *wsock) sendPeer(dst int, payload []byte) error { return s.mesh.send(dst, payload) }

func (s *wsock) dialPeers(self, epoch int, addrs []string) error {
	s.mesh.self = self
	return s.mesh.dialPeers(s.ctx, epoch, addrs, meshDialAttempts, s.backoff)
}

func (s *wsock) heartbeat(every time.Duration) {
	if every <= 0 {
		every = DefaultLease / 4
	}
	go func() {
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-s.ctx.Done():
				return
			case <-t.C:
				if err := s.send(fHeartbeat, nil); err != nil {
					return
				}
			}
		}
	}()
}

func (s *wsock) now() time.Time { return time.Now() }

// kill fires the planted kill point: SIGKILL to self, the closest honest
// stand-in for machine loss — no deferred functions, no flushes.
func (s *wsock) kill(phase string, superstep int) {
	if !s.crash.at(phase, superstep) {
		return
	}
	s.log.Warn("cluster: planted crash firing", "phase", phase, "superstep", superstep)
	_ = syscall.Kill(os.Getpid(), syscall.SIGKILL)
	select {} // unreachable: the kill is not catchable
}

// RunWorker connects to the coordinator and executes the assigned shard
// until the run completes (nil), the context is canceled, or the
// connection fails. A worker process is stateless beyond its checkpoint
// directory: every decision is the coordinator's.
func RunWorker(ctx context.Context, cfg WorkerConfig) error {
	if cfg.Addr == "" || cfg.Dir == "" {
		return errors.New("cluster: worker requires Addr and Dir")
	}
	if cfg.DialAttempts <= 0 {
		cfg.DialAttempts = DefaultDialAttempts
	}
	if cfg.DialBackoff <= 0 {
		cfg.DialBackoff = DefaultDialBackoff
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.MeshListenAddr == "" {
		cfg.MeshListenAddr = "127.0.0.1:0"
	}
	// The mesh listener comes up before the hello so the advertised address
	// is live the moment any peer learns it.
	me, err := newMesh(cfg.MeshListenAddr, cfg.Logger)
	if err != nil {
		return err
	}
	defer me.close()
	conn, err := dialCoordinator(ctx, cfg)
	if err != nil {
		return err
	}
	defer conn.Close()
	ctx, cancel := context.WithCancel(ctx)
	defer cancel() // stops the heartbeat
	s := &wsock{ctx: ctx, conn: conn, mesh: me, backoff: cfg.DialBackoff, crash: cfg.Crash, log: cfg.Logger}
	w := &wrk{cfg: cfg, io: s, pending: map[pendKey][]byte{}}
	defer w.close() // the frame loop, the only caller into w, has returned
	// A canceled context unblocks the frame read by closing the conn.
	go func() {
		<-ctx.Done()
		conn.Close()
	}()
	if err := w.hello(me.addr()); err != nil {
		return err
	}
	return s.loop(w)
}

// dialCoordinator retries with capped, jittered exponential backoff — the
// same discipline as the engine transport's dial path.
func dialCoordinator(ctx context.Context, cfg WorkerConfig) (net.Conn, error) {
	var d net.Dialer
	var lastErr error
	for i := 1; i <= cfg.DialAttempts; i++ {
		conn, err := d.DialContext(ctx, "tcp", cfg.Addr)
		if err == nil {
			return conn, nil
		}
		lastErr = err
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		select {
		case <-time.After(engine.RetryDelay(cfg.DialBackoff, i, 32*cfg.DialBackoff)):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
	return nil, fmt.Errorf("cluster: dial coordinator %s: %w", cfg.Addr, lastErr)
}

// loop funnels the coordinator stream and the mesh through one goroutine,
// which hands w one frame at a time.
func (s *wsock) loop(w *wrk) error {
	coordIn := make(chan event, 8) // the coordinator sends a superstep's few frames at once
	go readConn(0, s.conn, coordIn, s.ctx.Done())
	for {
		select {
		case f := <-coordIn:
			if f.kind == evDead {
				if s.ctx.Err() != nil {
					return s.ctx.Err()
				}
				if errors.Is(f.err, io.EOF) {
					return errors.New("cluster: coordinator closed the connection")
				}
				return fmt.Errorf("cluster: read frame: %w", f.err)
			}
			if done, err := w.frame(f.ftype, f.payload); done || err != nil {
				return err
			}
		case p := <-s.mesh.in:
			if err := w.handleMeshData(p); err != nil {
				return err
			}
		case <-s.ctx.Done():
			return s.ctx.Err()
		}
	}
}
