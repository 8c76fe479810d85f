package chaos

// The compaction durability proof: a child process applies deterministic
// batches to a live graph that auto-compacts every ~20 events, so the kill
// can land anywhere in the compaction protocol — mid-snapshot-write,
// between the snapshot rename and the log rotation, or mid-rotation. The
// recovery invariant is the same as the plain WAL test (acked batches are
// durable, graph regenerates bit-identically), with one addition: after
// enough batches a snapshot must exist, recovery must start from it, and
// must replay strictly fewer events than the full history.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
	"time"

	"graphite/internal/live"
)

// compactChildEnv marks a re-execution as a compacting WAL writer child;
// its value is a JSON walChildSpec (same shape as the plain WAL child).
const compactChildEnv = "GRAPHITE_COMPACT_CHILD"

// compactEvery keeps compactions frequent relative to batch size (~9
// events each), so a random kill has a real chance of landing inside the
// snapshot-write / rename / rotate window.
const compactEvery = 20

// runCompactChild checks compactChildEnv and, when set, applies the
// deterministic walBatch stream with auto-compaction enabled, fsyncing an
// ack line after each accepted batch. Never returns when the env is set.
func runCompactChild() {
	raw := os.Getenv(compactChildEnv)
	if raw == "" {
		return
	}
	var spec walChildSpec
	if err := json.Unmarshal([]byte(raw), &spec); err != nil {
		fmt.Fprintf(os.Stderr, "compact child: bad %s: %v\n", compactChildEnv, err)
		os.Exit(2)
	}
	g, err := live.Open(spec.WAL, live.Options{Name: "chaos-compact", CompactEvery: compactEvery})
	if err != nil {
		fmt.Fprintf(os.Stderr, "compact child: open: %v\n", err)
		os.Exit(1)
	}
	ack, err := os.OpenFile(spec.Ack, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		fmt.Fprintf(os.Stderr, "compact child: ack file: %v\n", err)
		os.Exit(1)
	}
	for i := int(g.Info().Epoch); i < spec.Max; i++ {
		if _, err := g.Apply(walBatch(i)); err != nil {
			fmt.Fprintf(os.Stderr, "compact child: apply %d: %v\n", i, err)
			os.Exit(1)
		}
		if _, err := fmt.Fprintf(ack, "%d\n", i); err != nil {
			fmt.Fprintf(os.Stderr, "compact child: ack %d: %v\n", i, err)
			os.Exit(1)
		}
		if err := ack.Sync(); err != nil {
			fmt.Fprintf(os.Stderr, "compact child: ack sync: %v\n", err)
			os.Exit(1)
		}
	}
	os.Exit(0)
}

func TestCompactionSurvivesSIGKILL(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess test")
	}
	dir := t.TempDir()
	walP := filepath.Join(dir, "g.wal")
	ackP := filepath.Join(dir, "acks")
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := json.Marshal(walChildSpec{WAL: walP, Ack: ackP, Max: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	var childErr bytes.Buffer
	cmd := exec.Command(exe)
	cmd.Env = append(os.Environ(), compactChildEnv+"="+string(spec))
	cmd.Stderr = &childErr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// With ~9 events per batch and a compaction every 20 events, 40 acked
	// batches guarantee many completed compactions before the kill, which
	// lands at an arbitrary point of the protocol.
	const minAcks = 40
	deadline := time.Now().Add(60 * time.Second)
	for countAcks(t, ackP) < minAcks {
		if time.Now().After(deadline) {
			_ = cmd.Process.Kill()
			_ = cmd.Wait()
			t.Fatalf("child never reached %d acks; stderr:\n%s", minAcks, childErr.String())
		}
		time.Sleep(2 * time.Millisecond)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL: no handlers, no flushes
		t.Fatal(err)
	}
	_ = cmd.Wait()
	acked := countAcks(t, ackP)

	g, err := live.Open(walP, live.Options{Name: "chaos-compact"})
	if err != nil {
		t.Fatalf("reopen after SIGKILL: %v", err)
	}
	defer g.Close()
	replayed := int(g.Info().Epoch)
	if replayed < acked || replayed > acked+1 {
		t.Fatalf("recovered %d batches, %d were acknowledged: want acked or acked+1", replayed, acked)
	}

	// Whatever point the kill hit, a usable snapshot survives (renames are
	// atomic and the first compaction long predates the kill), and recovery
	// from it replays only the post-snapshot tail — never the full history.
	rec := g.LastRecovery()
	total := g.Info().Events
	if !rec.FromSnapshot {
		t.Fatalf("recovery ignored the snapshot: %+v", rec)
	}
	if rec.SnapshotEvents <= 0 || rec.Events >= total {
		t.Fatalf("recovery replayed %d of %d events (snapshot covered %d): want a strict tail",
			rec.Events, total, rec.SnapshotEvents)
	}

	// Bit-identical to regeneration, exactly as without compaction.
	ref, err := live.Open(filepath.Join(dir, "ref.wal"), live.Options{Name: "ref", NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Close()
	for i := 0; i < replayed; i++ {
		if _, err := ref.Apply(walBatch(i)); err != nil {
			t.Fatalf("regenerate batch %d: %v", i, err)
		}
	}
	got, want := g.Acquire(), ref.Acquire()
	defer got.Release()
	defer want.Release()
	if gb, wb := walGraphBytes(t, got.Graph()), walGraphBytes(t, want.Graph()); !bytes.Equal(gb, wb) {
		t.Fatalf("recovered graph differs from regeneration: %d vs %d bytes (%d vertices/%d edges vs %d/%d)",
			len(gb), len(wb), got.Graph().NumVertices(), got.Graph().NumEdges(),
			want.Graph().NumVertices(), want.Graph().NumEdges())
	}
	t.Logf("SIGKILL after %d acked batches; snapshot covered %d events, tail replayed %d of %d (graph %d vertices, %d edges)",
		acked, rec.SnapshotEvents, rec.Events, total, got.Graph().NumVertices(), got.Graph().NumEdges())
}
