package engine

import (
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"graphite/internal/codec"
)

// Transport ships encoded message batches between workers during the
// exchange phase, standing in for the cluster network. Every worker sends
// exactly one batch (possibly empty) to every other worker per superstep;
// Recv returns one batch per peer. It changes what carries a batch, never the
// order it is delivered in. The in-process default (nil Transport) hands each
// outbox slab over as it is; TCPTransport pushes every cross-worker batch
// through real loopback sockets, exercising the full serialization path.
type Transport interface {
	// Send ships an encoded batch from worker src to worker dst (src != dst).
	// The batch is freshly allocated (Shard.Outbound's) and never written
	// again: Send may keep it.
	Send(src, dst int, batch []byte) error
	// Recv returns the batches addressed to dst this superstep, one per
	// other worker, in ascending source order.
	Recv(dst int) ([][]byte, error)
	// Close releases the transport's resources.
	Close() error
}

// encodeBatch serializes messages: a uvarint count, then per message the
// destination index, the var-byte interval, and the codec-encoded payload —
// straight from the word when the codec has a word form, through its any
// form for a spilled one.
func (e *Engine) encodeBatch(buf []byte, batch *msgSlab) []byte {
	buf = binary.AppendUvarint(buf, uint64(len(batch.msgs)))
	for _, m := range batch.msgs {
		buf = binary.AppendUvarint(buf, uint64(m.Dst))
		buf = codec.AppendInterval(buf, m.When)
		if m.Kind == e.inline {
			buf = codec.AppendWord(buf, m.Word())
		} else {
			buf = e.cfg.PayloadCodec.Append(buf, m.Word().Resolve(batch.spill))
		}
	}
	return buf
}

// decodeBatchInto parses a batch produced by encodeBatch, appending to dst so
// the receive phase can reuse one grow-only buffer per worker. The bytes come
// from a peer: a destination that is no vertex of this run is an error
// wrapping codec.ErrCorrupt, as every other malformed field is, and so is a
// byte after the last message. On error dst holds the messages decoded so far.
//
// It is the one record decoder that does not read through codec.Reader: it
// runs on every message a peer or a checkpoint hands a worker, and a variant
// over the reader decoded a 4 096-message batch 12–15 % slower (medians of 6
// interleaved rounds on a 2-core host: inline 131 → 150 µs, spilled 530 →
// 594 µs).
func (e *Engine) decodeBatchInto(dst *msgSlab, buf []byte) error {
	corrupt := func(what string) error { return fmt.Errorf("engine: batch: bad %s: %w", what, codec.ErrCorrupt) }
	n, k := binary.Uvarint(buf)
	if k <= 0 {
		return corrupt("header")
	}
	buf = buf[k:]
	for i := uint64(0); i < n; i++ {
		d, k := binary.Uvarint(buf)
		if k <= 0 || d >= uint64(e.numV) {
			return corrupt("destination")
		}
		buf = buf[k:]
		when, k, err := codec.Interval(buf)
		if err != nil {
			return corrupt("interval")
		}
		buf = buf[k:]
		var w codec.Word
		if e.inline != codec.NoInline {
			if w, k, err = codec.DecodeWord(buf, e.inline); err != nil {
				return corrupt("payload")
			}
		} else {
			var v any
			if v, k, err = e.cfg.PayloadCodec.Decode(buf); err != nil {
				return fmt.Errorf("engine: batch: %w", err)
			}
			var ok bool
			if w, ok = codec.WordOf(v); !ok {
				w = dst.hold(v)
			}
		}
		dst.msgs = append(dst.msgs, newMessage(int32(d), when, w))
		buf = buf[k:]
	}
	if len(buf) != 0 {
		return corrupt("length")
	}
	return nil
}

// TCPTransport is a full mesh of loopback TCP connections between the
// workers of one engine: batches travel length-prefixed over real sockets.
// Each ordered worker pair (src, dst) has its own connection; the dialing
// side writes, the accepting side reads.
type TCPTransport struct {
	n    int
	send [][]net.Conn // [src][dst]: dialer endpoints, written by src
	recv [][]net.Conn // [src][dst]: accepted endpoints, read by dst
	lns  []net.Listener
	// ioTimeout bounds each Send write and each Recv frame read, so a dead
	// peer surfaces as an error instead of a hung barrier.
	ioTimeout time.Duration
}

// The loopback mesh's IO deadline, setup deadline (accepts and dials both),
// and dial retries — peers may still be binding — with their initial backoff.
const (
	tcpIOTimeout    = 30 * time.Second
	tcpSetupTimeout = 10 * time.Second
	tcpDialAttempts = 5
	tcpDialBackoff  = 5 * time.Millisecond
)

// NewTCPTransport wires n workers into a loopback mesh.
func NewTCPTransport(n int) (*TCPTransport, error) {
	if n < 1 {
		return nil, fmt.Errorf("engine: transport needs at least one worker")
	}
	t := &TCPTransport{
		n:         n,
		send:      connMatrix(n),
		recv:      connMatrix(n),
		lns:       make([]net.Listener, n),
		ioTimeout: tcpIOTimeout,
	}
	deadline := time.Now().Add(tcpSetupTimeout)
	addrs := make([]string, n)
	for w := 0; w < n; w++ {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Close()
			return nil, err
		}
		// Accept deadline: a peer that never dials must fail setup, not hang
		// it forever.
		if tl, ok := ln.(*net.TCPListener); ok {
			tl.SetDeadline(deadline)
		}
		t.lns[w] = ln
		addrs[w] = ln.Addr().String()
	}
	// Acceptors: worker w accepts one connection from every peer; the
	// 4-byte handshake identifies the dialer.
	var wg sync.WaitGroup
	var mu sync.Mutex
	var firstErr error
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
	}
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n-1; i++ {
				conn, err := t.lns[w].Accept()
				if err != nil {
					fail(err)
					return
				}
				conn.SetReadDeadline(deadline)
				var id [4]byte
				if _, err := io.ReadFull(conn, id[:]); err != nil {
					fail(err)
					return
				}
				conn.SetReadDeadline(time.Time{})
				src := int(binary.BigEndian.Uint32(id[:]))
				if src < 0 || src >= n || src == w {
					fail(fmt.Errorf("engine: bad handshake id %d at worker %d", src, w))
					return
				}
				mu.Lock()
				t.recv[src][w] = conn
				mu.Unlock()
			}
		}(w)
	}
	// Dialers, with capped exponential backoff on transient failures.
	for w := 0; w < n; w++ {
		for p := 0; p < n; p++ {
			if p == w {
				continue
			}
			conn, err := dialRetry(addrs[p], tcpDialAttempts, tcpDialBackoff, deadline)
			if err != nil {
				fail(err)
				continue
			}
			conn.SetWriteDeadline(deadline)
			var id [4]byte
			binary.BigEndian.PutUint32(id[:], uint32(w))
			if _, err := conn.Write(id[:]); err != nil {
				fail(err)
			}
			conn.SetWriteDeadline(time.Time{})
			t.send[w][p] = conn
		}
	}
	wg.Wait()
	if firstErr != nil {
		t.Close()
		return nil, firstErr
	}
	return t, nil
}

// dialRetry dials addr up to attempts times with capped exponential backoff
// and equal jitter (RetryDelay), never past deadline. The jitter keeps
// simultaneously-restarting workers from re-dialing a recovering peer in
// lockstep.
func dialRetry(addr string, attempts int, backoff time.Duration, deadline time.Time) (net.Conn, error) {
	capped := 16 * backoff
	var err error
	for i := 0; i < attempts; i++ {
		if i > 0 {
			pause := RetryDelay(backoff, i, capped)
			if time.Now().Add(pause).After(deadline) {
				break
			}
			time.Sleep(pause)
		}
		d := net.Dialer{Deadline: deadline}
		var conn net.Conn
		if conn, err = d.Dial("tcp", addr); err == nil {
			return conn, nil
		}
	}
	return nil, fmt.Errorf("engine: dial %s failed after %d attempts: %w", addr, attempts, err)
}

func connMatrix(n int) [][]net.Conn {
	m := make([][]net.Conn, n)
	for i := range m {
		m[i] = make([]net.Conn, n)
	}
	return m
}

// Send implements Transport with a 4-byte length prefix. A missing
// connection (failed dial, closed mesh) is a descriptive error, never a nil
// dereference; each write is bounded by the IO timeout.
func (t *TCPTransport) Send(src, dst int, batch []byte) error {
	if src < 0 || src >= t.n || dst < 0 || dst >= t.n || src == dst {
		return fmt.Errorf("engine: invalid send pair %d->%d in %d-worker mesh", src, dst, t.n)
	}
	conn := t.send[src][dst]
	if conn == nil {
		return fmt.Errorf("engine: no connection %d->%d (dial failed or mesh closed)", src, dst)
	}
	conn.SetWriteDeadline(time.Now().Add(t.ioTimeout))
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(batch)))
	if _, err := conn.Write(hdr[:]); err != nil {
		return err
	}
	_, err := conn.Write(batch)
	return err
}

// Recv implements Transport: one frame per peer, ascending source order.
// Each frame read is bounded by the IO timeout so a dead peer
// cannot block the barrier forever.
func (t *TCPTransport) Recv(dst int) ([][]byte, error) {
	if dst < 0 || dst >= t.n {
		return nil, fmt.Errorf("engine: invalid recv worker %d in %d-worker mesh", dst, t.n)
	}
	var out [][]byte
	for src := 0; src < t.n; src++ {
		if src == dst {
			continue
		}
		conn := t.recv[src][dst]
		if conn == nil {
			return nil, fmt.Errorf("engine: no connection %d->%d (dial failed or mesh closed)", src, dst)
		}
		conn.SetReadDeadline(time.Now().Add(t.ioTimeout))
		var hdr [4]byte
		if _, err := io.ReadFull(conn, hdr[:]); err != nil {
			return nil, err
		}
		n := binary.BigEndian.Uint32(hdr[:])
		buf := make([]byte, n)
		if _, err := io.ReadFull(conn, buf); err != nil {
			return nil, err
		}
		out = append(out, buf)
	}
	return out, nil
}

// Close shuts the mesh down.
func (t *TCPTransport) Close() error {
	for _, ln := range t.lns {
		if ln != nil {
			ln.Close()
		}
	}
	for _, m := range [][][]net.Conn{t.send, t.recv} {
		for _, row := range m {
			for _, c := range row {
				if c != nil {
					c.Close()
				}
			}
		}
	}
	return nil
}
