package mpi

import "errors"

// Sentinel errors for API misuse of the MPI layer. Following the MPI
// convention that usage errors abort the job, these surface as panics
// carrying error values: recover the value and test it with errors.Is.
var (
	// ErrNegativeTag reports a user message with a negative tag (the
	// negative space is reserved for internal protocol traffic).
	ErrNegativeTag = errors.New("mpi: negative tags are reserved")
	// ErrExceedsEager reports a message, or a collective exchange, larger
	// than EagerMax: the layer has no protocol for one.
	ErrExceedsEager = errors.New("mpi: message exceeds the eager limit")
	// ErrSelfSend reports a point-to-point send addressed to the sender.
	ErrSelfSend = errors.New("mpi: send to self")
	// ErrCountMismatch reports a broadcast whose arriving message is not
	// the length of the buffer the receiving member passed.
	ErrCountMismatch = errors.New("mpi: message length differs from the buffer")
)
