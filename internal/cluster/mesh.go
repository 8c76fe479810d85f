package cluster

// The worker-to-worker data mesh. Each worker listens on an ephemeral TCP
// port, advertises the address in its hello, and — once the coordinator
// broadcasts the full address table — dials every peer, forming a complete
// directed mesh of framed CRC'd connections. fData batches then travel one
// hop, and the coordinator carries only the batches of a link that is down.
//
// Determinism does not depend on mesh arrival order: every batch carries
// the (epoch, superstep, src) routing header, receivers collect all N-1
// batches before delivering, and delivery replays the engine's historical
// order (own outbox, then ascending source shard). The only mesh-specific
// hazard is a batch arriving before the coordinator's fStep for its
// superstep — two independent TCP streams have no mutual ordering — which
// the worker absorbs by parking early batches in a pending buffer keyed by
// (superstep, src) and draining it when the step opens.
//
// Inbound frames flow through per-connection reader goroutines into one
// buffered channel consumed by the worker's main loop, keeping the worker
// a single-threaded state machine. The channel is sized for the protocol's
// bound of one outstanding batch per peer per superstep (peers can run at
// most one superstep ahead of the slowest worker, because the coordinator
// gates each superstep on every barrier report), so readers never block
// and a send-side stall cannot deadlock the fleet.

import (
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net"
	"sync"
	"time"

	"graphite/internal/engine"
)

// mesh is one worker's endpoint among its peers. The listener and
// inbound connections are owned by background goroutines; the outbound
// connection table is touched only by the worker's main loop.
type mesh struct {
	self  int // shard, set at assignment (listener starts before it is known)
	ln    net.Listener
	in    chan []byte // inbound fData payloads (header + batch)
	log   *slog.Logger
	outs  []net.Conn // shard -> outbound conn; nil for self or unconnected
	wmu   sync.Mutex // serializes closeConns against accept-side bookkeeping
	conns map[net.Conn]struct{}
	done  chan struct{}
}

// newMesh opens the listener and starts accepting. addr is the listen
// address ("127.0.0.1:0" for an ephemeral loopback port); the advertised
// address is ln.Addr().
func newMesh(addr string, log *slog.Logger) (*mesh, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: mesh listen %s: %w", addr, err)
	}
	m := &mesh{
		self:  -1,
		ln:    ln,
		in:    make(chan []byte, 64),
		log:   log,
		conns: map[net.Conn]struct{}{},
		done:  make(chan struct{}),
	}
	go m.accept()
	return m, nil
}

func (m *mesh) addr() string { return m.ln.Addr().String() }

// accept admits peer connections for the mesh's lifetime. Each connection
// must open with fMeshHello; everything after is fData payloads forwarded
// to the worker loop. A read error just ends that connection — peers
// re-dial on every epoch, and batch integrity is the CRC framing's job.
func (m *mesh) accept() {
	for {
		c, err := m.ln.Accept()
		if err != nil {
			return // listener closed
		}
		m.wmu.Lock()
		select {
		case <-m.done:
			m.wmu.Unlock()
			c.Close()
			return
		default:
		}
		m.conns[c] = struct{}{}
		m.wmu.Unlock()
		go m.serveConn(c)
	}
}

func (m *mesh) serveConn(c net.Conn) {
	defer func() {
		m.wmu.Lock()
		delete(m.conns, c)
		m.wmu.Unlock()
		c.Close()
	}()
	ftype, payload, err := readConnFrame(c)
	if err != nil || ftype != fMeshHello {
		return
	}
	var hello meshHelloMsg
	if err := parseJSON(payload, &hello); err != nil {
		return
	}
	for {
		ftype, payload, err := readConnFrame(c)
		if err != nil {
			return
		}
		if ftype != fData {
			m.log.Warn("mesh: unexpected frame from peer", "peer", hello.Shard, "type", ftype)
			return
		}
		select {
		case m.in <- payload:
		case <-m.done:
			return
		}
	}
}

// dialPeers (re)builds the outbound half of the mesh for an epoch: closes
// any previous connections and dials every other shard with jittered
// exponential backoff. Called synchronously from the worker's main loop on
// every fPeers — a recovery bumps the epoch and re-broadcasts the table
// with the replacement's fresh address, so redialing from scratch is both
// the simple and the correct behavior. A peer that does not answer keeps a
// nil slot, which send reports on every batch bound for it, and the rest
// are still dialed; the only error is the context's.
func (m *mesh) dialPeers(ctx context.Context, epoch int, addrs []string, attempts int, backoff time.Duration) error {
	m.closeOuts()
	m.outs = make([]net.Conn, len(addrs))
	hello, err := json.Marshal(meshHelloMsg{Shard: m.self, Epoch: epoch})
	if err != nil {
		return err
	}
	for shard, addr := range addrs {
		if shard == m.self {
			continue
		}
		conn, err := dialPeer(ctx, addr, hello, attempts, backoff)
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if err != nil {
			m.linkDown(shard, err)
			continue
		}
		m.outs[shard] = conn
	}
	return nil
}

// dialPeer opens one outbound mesh connection and introduces this shard.
func dialPeer(ctx context.Context, addr string, hello []byte, attempts int, backoff time.Duration) (net.Conn, error) {
	var d net.Dialer
	var conn net.Conn
	var err error
	for a := 0; a < attempts; a++ {
		if a > 0 {
			select {
			case <-time.After(engine.RetryDelay(backoff, a-1, time.Second)):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		if conn, err = d.DialContext(ctx, "tcp", addr); err == nil {
			break
		}
	}
	if err != nil {
		return nil, fmt.Errorf("dial %s: %w", addr, err)
	}
	if err := writeConnFrame(conn, fMeshHello, hello); err != nil {
		conn.Close()
		return nil, fmt.Errorf("hello to %s: %w", addr, err)
	}
	return conn, nil
}

// linkDown is the one log line a lost link gets: it is written where the
// slot goes nil (a dial that gave up, a write that failed), not on each of
// the batches that take the coordinator hop because of it.
func (m *mesh) linkDown(peer int, err error) {
	m.log.Warn("cluster: mesh link down, its batches go through the coordinator until the next epoch",
		"shard", m.self, "peer", peer, "err", err)
}

// send ships one fData payload directly to dst. On failure the connection
// is dropped (the peer is dead or the mesh is torn); the caller sends this
// batch through the coordinator instead and the next epoch re-dials.
func (m *mesh) send(dst int, payload []byte) error {
	if dst < 0 || dst >= len(m.outs) || m.outs[dst] == nil {
		return fmt.Errorf("cluster: no mesh connection to shard %d", dst)
	}
	c := m.outs[dst]
	c.SetWriteDeadline(time.Now().Add(meshWriteDeadline))
	if err := writeConnFrame(c, fData, payload); err != nil {
		c.Close()
		m.outs[dst] = nil
		m.linkDown(dst, err)
		return fmt.Errorf("cluster: mesh send to shard %d: %w", dst, err)
	}
	c.SetWriteDeadline(time.Time{})
	return nil
}

// meshWriteDeadline bounds one peer batch write. Receivers drain
// continuously, so a stall this long means the peer is gone; the batch
// goes through the coordinator and the lease machinery handles the corpse.
const meshWriteDeadline = 10 * time.Second

func (m *mesh) closeOuts() {
	for i, c := range m.outs {
		if c != nil {
			c.Close()
			m.outs[i] = nil
		}
	}
}

// close tears the whole endpoint down: listener, inbound, outbound.
func (m *mesh) close() {
	if m == nil {
		return
	}
	m.wmu.Lock()
	select {
	case <-m.done:
	default:
		close(m.done)
	}
	for c := range m.conns {
		c.Close()
	}
	m.wmu.Unlock()
	m.ln.Close()
	m.closeOuts()
}
