package engine

import (
	"errors"
	"net"
	"reflect"
	"testing"
	"time"

	"graphite/internal/codec"
	ival "graphite/internal/interval"
)

func TestBatchRoundTrip(t *testing.T) {
	e, err := New(1025, idleProgram{}, Config{NumWorkers: 2, PayloadCodec: codec.Int64{}})
	if err != nil {
		t.Fatal(err)
	}
	msgs := []Message{
		newMessage(3, ival.New(2, 9), codec.IntWord(-7)),
		newMessage(0, ival.From(5), codec.IntWord(1<<40)),
		newMessage(1024, ival.Point(0), codec.IntWord(0)),
	}
	buf := e.encodeBatch(nil, &msgSlab{msgs: msgs})
	var got msgSlab
	if err := e.decodeBatchInto(&got, buf); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got.msgs, msgs) {
		t.Fatalf("round trip:\n%v\n%v", got.msgs, msgs)
	}
	// Empty batch.
	got.reset()
	if err := e.decodeBatchInto(&got, e.encodeBatch(nil, &msgSlab{})); err != nil || len(got.msgs) != 0 {
		t.Fatalf("empty batch: %v %v", got.msgs, err)
	}
	// Corruption: a truncated batch, and one message followed by two bytes.
	for _, bad := range [][]byte{{0x05, 0x01}, append(e.encodeBatch(nil, &msgSlab{msgs: msgs[:1]}), 0xff, 0x01)} {
		if err := e.decodeBatchInto(&got, bad); !errors.Is(err, codec.ErrCorrupt) {
			t.Fatalf("corrupt batch %x must fail with ErrCorrupt, got %v", bad, err)
		}
	}
}

func TestTCPTransportMesh(t *testing.T) {
	tr, err := NewTCPTransport(3)
	if err != nil {
		t.Fatalf("NewTCPTransport: %v", err)
	}
	defer tr.Close()
	// Everyone sends a tagged frame to everyone else.
	for src := 0; src < 3; src++ {
		for dst := 0; dst < 3; dst++ {
			if src == dst {
				continue
			}
			if err := tr.Send(src, dst, []byte{byte(src*10 + dst)}); err != nil {
				t.Fatalf("send %d->%d: %v", src, dst, err)
			}
		}
	}
	for dst := 0; dst < 3; dst++ {
		batches, err := tr.Recv(dst)
		if err != nil {
			t.Fatalf("recv %d: %v", dst, err)
		}
		if len(batches) != 2 {
			t.Fatalf("recv %d: %d batches", dst, len(batches))
		}
		// Ascending source order.
		want := []byte{}
		for src := 0; src < 3; src++ {
			if src != dst {
				want = append(want, byte(src*10+dst))
			}
		}
		for i, b := range batches {
			if len(b) != 1 || b[0] != want[i] {
				t.Fatalf("recv %d batch %d = %v, want %v", dst, i, b, want[i])
			}
		}
	}
}

// TestEngineOverTCPTransport runs the BFS ring program with every
// cross-worker message traveling through real loopback sockets and checks
// the results match the in-process path.
func TestEngineOverTCPTransport(t *testing.T) {
	const n = 12
	tr, err := NewTCPTransport(4)
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	defer tr.Close()
	p := &distProgram{adj: ring(n), dist: make([]int64, n)}
	e, err := New(n, p, Config{NumWorkers: 4, PayloadCodec: codec.Int64{}, Transport: tr})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	m, err := e.Run()
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	for i := 0; i < n; i++ {
		if p.dist[i] != int64(i) {
			t.Fatalf("dist[%d] = %d, want %d", i, p.dist[i], i)
		}
	}
	if m.Messages != int64(n) {
		t.Errorf("messages = %d, want %d", m.Messages, n)
	}
}

func TestTransportRequiresCodec(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	defer tr.Close()
	p := &countProgram{limit: 2}
	if _, err := New(4, p, Config{NumWorkers: 2, Transport: tr}); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("want ErrBadConfig, got %v", err)
	}
}

func TestTCPTransportRejectsZeroWorkers(t *testing.T) {
	if _, err := NewTCPTransport(0); err == nil {
		t.Fatalf("want error for zero workers")
	}
	// A single worker mesh is trivially fine (no connections).
	tr, err := NewTCPTransport(1)
	if err != nil {
		t.Fatalf("single worker: %v", err)
	}
	tr.Close()
}

// TestTransportFailureSurfaces kills the mesh mid-run and checks the engine
// reports the failure instead of hanging or silently dropping messages.
func TestTransportFailureSurfaces(t *testing.T) {
	const n = 8
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	tr.Close() // all connections are already dead
	p := &distProgram{adj: ring(n), dist: make([]int64, n)}
	e, err := New(n, p, Config{NumWorkers: 2, PayloadCodec: codec.Int64{}, Transport: tr})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if _, err := e.Run(); err == nil {
		t.Fatalf("run over a closed transport must fail")
	}
}

// TestTCPTransportNilConnGuard exercises the missing-connection and bounds
// guards directly: both must be descriptive errors, never nil dereferences.
func TestTCPTransportNilConnGuard(t *testing.T) {
	tr := &TCPTransport{n: 2, send: connMatrix(2), recv: connMatrix(2)}
	if err := tr.Send(0, 1, []byte{1}); err == nil {
		t.Fatalf("send over missing connection must fail")
	}
	if _, err := tr.Recv(1); err == nil {
		t.Fatalf("recv over missing connection must fail")
	}
	if err := tr.Send(0, 5, nil); err == nil {
		t.Fatalf("out-of-range dst must fail")
	}
	if err := tr.Send(1, 1, nil); err == nil {
		t.Fatalf("self send must fail")
	}
	if _, err := tr.Recv(-1); err == nil {
		t.Fatalf("out-of-range recv worker must fail")
	}
}

// TestTCPTransportRecvTimeout checks a silent peer surfaces as a timeout
// error instead of blocking the barrier forever.
func TestTCPTransportRecvTimeout(t *testing.T) {
	tr, err := NewTCPTransport(2)
	if err != nil {
		t.Fatalf("transport: %v", err)
	}
	defer tr.Close()
	tr.ioTimeout = 50 * time.Millisecond
	start := time.Now()
	if _, err := tr.Recv(1); err == nil {
		t.Fatalf("recv with no sender must time out")
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("timeout took %v, deadline not applied", elapsed)
	}
}

// TestDialRetryLateListener verifies mesh setup survives a peer that binds
// late: dialRetry keeps retrying with backoff until the listener appears.
func TestDialRetryLateListener(t *testing.T) {
	// Reserve a port, free it, then rebind it shortly after the first dial
	// attempt has already failed.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		time.Sleep(20 * time.Millisecond)
		ln2, err := net.Listen("tcp", addr)
		if err != nil {
			return // port raced away; the dial below will be skipped
		}
		defer ln2.Close()
		if conn, err := ln2.Accept(); err == nil {
			conn.Close()
		}
	}()
	conn, err := dialRetry(addr, 10, 5*time.Millisecond, time.Now().Add(5*time.Second))
	if err != nil {
		t.Skipf("port rebind raced: %v", err)
	}
	conn.Close()
	<-done
}
