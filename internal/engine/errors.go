package engine

import (
	"errors"
	"fmt"
)

// VertexPanicError reports a panic that escaped user Program code (Init or
// Run). The engine recovers it inside the worker goroutine so the process
// stays alive, and surfaces it as the run error.
type VertexPanicError struct {
	// Vertex is the dense index of the vertex whose user logic panicked,
	// or -1 when the panic was not attributable to a single vertex.
	Vertex int
	// Superstep is the 1-based superstep during which the panic fired.
	Superstep int
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at the recovery point.
	Stack []byte
}

// Error implements error.
func (e *VertexPanicError) Error() string {
	return fmt.Sprintf("engine: program panic at vertex %d, superstep %d: %v",
		e.Vertex, e.Superstep, e.Value)
}

// ErrRecoveryExhausted is wrapped into the error of a Barrier.Rewind past its
// Config.MaxRecoveries budget: the cluster coordinator's run error once it
// has lost more workers than the budget allows.
var ErrRecoveryExhausted = errors.New("engine: recovery attempts exhausted")

// ErrCanceled is wrapped into the run error when Config.Context is canceled.
// Cancellation is cooperative: workers stop claiming vertices as soon as they
// observe it, and the run aborts at the next superstep barrier. Test with
// errors.Is(err, ErrCanceled).
var ErrCanceled = errors.New("engine: run canceled")
