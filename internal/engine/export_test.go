package engine

// Hooks for this directory's external tests (package engine_test), which
// may import the ICM runtime and the algorithm catalog — this package may
// not — to take and restore Run's own captures of real programs. A master
// runs at a barrier, on the goroutine that checkpoints, so that is where
// they hang.

// Checkpoint is one of Run's recovery points: the capture of every worker
// and the barrier's state beside it.
type Checkpoint struct {
	data []byte
	ctl  BarrierState
}

// Bytes returns the checkpoint's capture of every worker.
func (c Checkpoint) Bytes() []byte { return c.data }

// Checkpoint takes a recovery point at this barrier, as Run does every
// Config.CheckpointEvery supersteps.
func (m *MasterControl) Checkpoint() (Checkpoint, error) {
	err := m.eng.saveCheckpoint()
	return Checkpoint{m.eng.ckpt, m.b.committed}, err
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
