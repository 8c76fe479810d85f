package cluster

// Test hooks for the simulator (sim_test.go): the coordinator's driver and
// the worker's wrk, driven through their I/O seams, coordIO and workerIO,
// which these adapters let package cluster_test implement.

import (
	"log/slog"
	"time"

	"graphite/internal/core"
	"graphite/internal/obs"
)

// Frame types, for the simulator's routing and its injected frames.
const (
	FHello     = fHello
	FAssign    = fAssign
	FReady     = fReady
	FStep      = fStep
	FStepDone  = fStepDone
	FData      = fData
	FRollback  = fRollback
	FCollect   = fCollect
	FResult    = fResult
	FHeartbeat = fHeartbeat
	FError     = fError
	FBye       = fBye
	FPeers     = fPeers
	FMeshed    = fMeshed
	FMeshHello = fMeshHello
)

// CoordIO is coordIO for a test to implement.
type CoordIO interface {
	Send(conn int, ftype byte, payload []byte) error
	Close(conn int)
	Now() time.Time
}

type coordAdapter struct{ CoordIO }

func (a coordAdapter) send(conn int, ftype byte, p []byte) error { return a.Send(conn, ftype, p) }
func (a coordAdapter) close(conn int)                            { a.Close(conn) }
func (a coordAdapter) now() time.Time                            { return a.Now() }

// Driver is a coordinator's protocol state machine without its sockets; its
// methods are the events Serve's loop feeds it.
type Driver struct{ d *driver }

// NewDriver returns c's driver over io. Call it at most once per
// coordinator, and not with Serve.
func NewDriver(c *Coordinator, io CoordIO) *Driver { return &Driver{newDriver(c, coordAdapter{io})} }

func (d *Driver) Connect(conn int, addr string) error {
	return d.d.on(event{kind: evConn, conn: conn, addr: addr})
}

func (d *Driver) Frame(conn int, ftype byte, payload []byte) error {
	return d.d.on(event{kind: evFrame, conn: conn, ftype: ftype, payload: payload})
}

func (d *Driver) Lost(conn int, err error) error {
	return d.d.on(event{kind: evDead, conn: conn, err: err})
}

func (d *Driver) Tick() error { return d.d.on(event{kind: evTick}) }

// Result is the run's result once the driver has assembled it.
func (d *Driver) Result() *core.Result { return d.d.result }

// WorkerIO is workerIO for a test to implement.
type WorkerIO interface {
	Send(ftype byte, payload []byte) error
	SendPeer(dst int, payload []byte) error
	DialPeers(self, epoch int, addrs []string) error
	Heartbeat(every time.Duration)
	Now() time.Time
	Kill(phase string, superstep int)
}

type workerAdapter struct{ WorkerIO }

func (a workerAdapter) send(ftype byte, p []byte) error  { return a.Send(ftype, p) }
func (a workerAdapter) sendPeer(dst int, p []byte) error { return a.SendPeer(dst, p) }
func (a workerAdapter) heartbeat(every time.Duration)    { a.Heartbeat(every) }
func (a workerAdapter) now() time.Time                   { return a.Now() }
func (a workerAdapter) kill(phase string, superstep int) { a.Kill(phase, superstep) }
func (a workerAdapter) dialPeers(self, epoch int, addrs []string) error {
	return a.DialPeers(self, epoch, addrs)
}

// Worker is one worker's protocol state machine without its sockets.
type Worker struct{ w *wrk }

// NewWorker returns a worker keeping its checkpoints in dir, as RunWorker
// configures one by default, tracing to tr (nil: no trace).
func NewWorker(dir string, io WorkerIO, tr obs.Tracer, log *slog.Logger) *Worker {
	cfg := WorkerConfig{Dir: dir, Tracer: tr, Logger: log}
	return &Worker{&wrk{cfg: cfg, io: workerAdapter{io}, pending: map[pendKey][]byte{}}}
}

// Hello registers the worker, advertising meshAddr.
func (w *Worker) Hello(meshAddr string) error { return w.w.hello(meshAddr) }

// Frame hands the worker one frame from the coordinator; done ends its run.
func (w *Worker) Frame(ftype byte, payload []byte) (done bool, err error) {
	return w.w.frame(ftype, payload)
}

// Mesh hands the worker one batch from a peer.
func (w *Worker) Mesh(payload []byte) error { return w.w.handleMeshData(payload) }

func (w *Worker) Close() { w.w.close() }

// DataHeader parses a data frame's routing header.
func DataHeader(p []byte) (epoch, superstep, src, dst int, err error) {
	h, _, err := parseDataHeader(p)
	return h.epoch, h.superstep, h.src, h.dst, err
}
