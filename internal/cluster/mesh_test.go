package cluster

// White-box mesh tests: the mesh must deliver framed batches, survive a
// peer endpoint dying or never answering (send errors instead of wedging,
// so the caller can send that batch through the coordinator) without
// losing its other links, and resume in order after the epoch-style
// re-dial that recovery performs.

import (
	"bytes"
	"context"
	"errors"
	"io"
	"log/slog"
	"net"
	"testing"
	"time"
)

func newTestMesh(t *testing.T, self int) *mesh {
	t.Helper()
	m, err := newMesh("127.0.0.1:0", slog.Default())
	if err != nil {
		t.Fatal(err)
	}
	m.self = self
	t.Cleanup(m.close)
	return m
}

func recvPayload(t *testing.T, m *mesh) []byte {
	t.Helper()
	select {
	case p := <-m.in:
		return p
	case <-time.After(5 * time.Second):
		t.Fatal("mesh delivery timed out")
		return nil
	}
}

func TestMeshSendAndReconnect(t *testing.T) {
	ctx := context.Background()
	a, b := newTestMesh(t, 0), newTestMesh(t, 1)
	addrs := []string{a.addr(), b.addr()}
	backoff := 5 * time.Millisecond
	if err := a.dialPeers(ctx, 0, addrs, 3, backoff); err != nil {
		t.Fatal(err)
	}
	if err := b.dialPeers(ctx, 0, addrs, 3, backoff); err != nil {
		t.Fatal(err)
	}

	// Both directions deliver, in send order.
	for i, payload := range [][]byte{[]byte("batch-1"), []byte("batch-2")} {
		if err := a.send(1, payload); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	if got := recvPayload(t, b); !bytes.Equal(got, []byte("batch-1")) {
		t.Fatalf("first delivery = %q", got)
	}
	if got := recvPayload(t, b); !bytes.Equal(got, []byte("batch-2")) {
		t.Fatalf("second delivery = %q", got)
	}
	if err := b.send(0, []byte("reply")); err != nil {
		t.Fatal(err)
	}
	if got := recvPayload(t, a); !bytes.Equal(got, []byte("reply")) {
		t.Fatalf("reply delivery = %q", got)
	}

	// Self and out-of-range destinations are refused, not wedged.
	if err := a.send(0, []byte("self")); err == nil {
		t.Error("send to self accepted")
	}
	if err := a.send(9, []byte("beyond")); err == nil {
		t.Error("send beyond the fleet accepted")
	}

	// Peer death: b's endpoint closes (a kill -9 from the mesh's view).
	// a's sends must start failing — that error is what sends the caller's
	// batch through the coordinator — rather than block.
	b.close()
	var sendErr error
	for i := 0; i < 50 && sendErr == nil; i++ {
		sendErr = a.send(1, []byte("into the void"))
		time.Sleep(2 * time.Millisecond) // kernel may buffer the first writes
	}
	if sendErr == nil {
		t.Fatal("sends to a dead peer kept succeeding")
	}

	// Recovery: the replacement advertises a fresh listener and everyone
	// re-dials with the bumped epoch. Delivery resumes in order.
	b2 := newTestMesh(t, 1)
	addrs[1] = b2.addr()
	if err := a.dialPeers(ctx, 1, addrs, 3, backoff); err != nil {
		t.Fatal(err)
	}
	if err := b2.dialPeers(ctx, 1, addrs, 3, backoff); err != nil {
		t.Fatal(err)
	}
	for _, payload := range [][]byte{[]byte("epoch1-a"), []byte("epoch1-b")} {
		if err := a.send(1, payload); err != nil {
			t.Fatal(err)
		}
	}
	if got := recvPayload(t, b2); !bytes.Equal(got, []byte("epoch1-a")) {
		t.Fatalf("post-recovery first delivery = %q", got)
	}
	if got := recvPayload(t, b2); !bytes.Equal(got, []byte("epoch1-b")) {
		t.Fatalf("post-recovery second delivery = %q", got)
	}
}

// deadAddr refuses every connection: port 1 is outside the ephemeral range,
// so no listener of this or a neighbouring test can come to own it.
const deadAddr = "127.0.0.1:1"

// TestMeshDialSkipsDeadPeer pins the per-link fallback's trigger: one
// address nobody serves, among three, costs that slot and nothing else —
// the peers after it are still dialed and still deliver, and a send to the
// dead one fails at once instead of waiting out a write deadline.
func TestMeshDialSkipsDeadPeer(t *testing.T) {
	a, b, c := newTestMesh(t, 0), newTestMesh(t, 2), newTestMesh(t, 3)
	addrs := []string{a.addr(), deadAddr, b.addr(), c.addr()}
	if err := a.dialPeers(context.Background(), 0, addrs, 2, time.Millisecond); err != nil {
		t.Fatalf("a dead peer failed the whole dial: %v", err)
	}
	for _, peer := range []*mesh{b, c} {
		if err := a.send(peer.self, []byte("past the dead one")); err != nil {
			t.Fatalf("send to live shard %d: %v", peer.self, err)
		}
		if got := recvPayload(t, peer); !bytes.Equal(got, []byte("past the dead one")) {
			t.Fatalf("shard %d received %q", peer.self, got)
		}
	}
	t0 := time.Now()
	if err := a.send(1, []byte("into the void")); err == nil {
		t.Fatal("send to a peer that never answered succeeded")
	}
	if d := time.Since(t0); d > time.Second {
		t.Errorf("send to a dead slot took %v", d)
	}
}

// TestMeshDialFailure pins the one way dialPeers itself fails: its context
// ending while it waits out a retry, which is the worker shutting down. It
// must return that error then, not finish the backoff schedule (a thousand
// attempts, half a second apart and more).
func TestMeshDialFailure(t *testing.T) {
	a := newTestMesh(t, 0)
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	t0 := time.Now()
	err := a.dialPeers(ctx, 0, []string{a.addr(), deadAddr}, 1000, time.Hour)
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dialPeers under an expired context returned %v", err)
	}
	if d := time.Since(t0); d > 5*time.Second {
		t.Errorf("dialPeers outlived its context by %v", d)
	}
}

// TestHelloWithoutMeshAddrRefused pins that the mesh is not optional: a
// worker registering without a mesh address is dropped like any other
// malformed hello — it holds no shard and the coordinator keeps waiting.
func TestHelloWithoutMeshAddrRefused(t *testing.T) {
	coord, err := New(Config{Workers: 2, Graph: "transit", Algo: "sssp"})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go coord.Serve(ln)
	defer coord.Close()
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := sendJSON(conn, fHello, helloMsg{PrevShard: -1}); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if ftype, _, err := readConnFrame(conn); !errors.Is(err, io.EOF) {
		t.Fatalf("coordinator answered a hello without a mesh address: frame %d, error %v", ftype, err)
	}
	if st := coord.Stats(); st.Live != 0 || st.State != stWaiting {
		t.Errorf("refused worker changed the cluster: %+v", st)
	}
}

// TestMeshRejectsGarbageConnection proves a connection that skips the
// fMeshHello handshake is dropped without poisoning the inbound channel.
func TestMeshRejectsGarbageConnection(t *testing.T) {
	m := newTestMesh(t, 0)
	peer := newTestMesh(t, 1)
	addrs := []string{m.addr(), peer.addr()}
	// A well-behaved peer first, so there is a live delivery to contrast.
	if err := peer.dialPeers(context.Background(), 0, addrs, 3, time.Millisecond); err != nil {
		t.Fatal(err)
	}
	// Now a liar: raw bytes instead of a framed hello.
	c, err := net.Dial("tcp", m.addr())
	if err != nil {
		t.Fatal(err)
	}
	_, _ = c.Write([]byte("NOT A FRAME"))
	c.Close()
	// The honest peer's traffic still flows.
	if err := peer.send(0, []byte("still alive")); err != nil {
		t.Fatal(err)
	}
	if got := recvPayload(t, m); !bytes.Equal(got, []byte("still alive")) {
		t.Fatalf("delivery after garbage connection = %q", got)
	}
}
