package engine

// Hooks for this directory's external tests (package engine_test), which
// may import the ICM runtime and the algorithm catalog — this package may
// not — to capture and restore every worker of a Run of real programs. A
// master runs at a barrier, on the coordinating goroutine, so that is where
// they hang.

// Checkpoint is what the cluster keeps of a committed generation, for every
// worker of a Run: their capture, and the barrier's state beside it.
type Checkpoint struct {
	data []byte
	ctl  BarrierState
}

// Bytes returns the checkpoint's capture of every worker.
func (c Checkpoint) Bytes() []byte { return c.data }

// Checkpoint captures every worker and the barrier's state at this barrier.
func (m *MasterControl) Checkpoint() (Checkpoint, error) {
	data, err := m.eng.capture(nil, m.eng.workers)
	return Checkpoint{data, m.b.State()}, err
}

// Rewind rolls the engine back to c, as a recovery does — c may come from
// another engine over the same vertices, workers and program. The master
// then steers the superstep c was taken before.
func (m *MasterControl) Rewind(c Checkpoint) error {
	err := m.eng.restore(c.data, m.eng.workers)
	m.b.SetState(c.ctl)
	m.superstep = m.eng.superstp
	return err
}

// Capture returns the capture of every worker at this barrier.
func (m *MasterControl) Capture() ([]byte, error) { return m.eng.capture(nil, m.eng.workers) }

// Restore rewinds every worker to a capture.
func (m *MasterControl) Restore(data []byte) error {
	err := m.eng.restore(data, m.eng.workers)
	m.superstep = m.eng.superstp
	return err
}
