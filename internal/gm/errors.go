package gm

import "errors"

// Sentinel errors for API misuse of the GM layer. The firmware model
// treats misuse as fatal (a real NIC would wedge), so these surface as
// panics carrying error values: recover the value and test it with
// errors.Is.
var (
	// ErrExtensionInstalled reports a second SetExtension on one NIC.
	ErrExtensionInstalled = errors.New("gm: extension already installed")
	// ErrPortInUse reports opening a port number twice on one NIC.
	ErrPortInUse = errors.New("gm: port already open")
	// ErrNoSuchPort reports looking up a port that was never opened.
	ErrNoSuchPort = errors.New("gm: port not open")
	// ErrTokenExhausted reports posting more receive tokens than the
	// configured cap allows.
	ErrTokenExhausted = errors.New("gm: receive token limit exceeded")
	// ErrSelfSend reports a send addressed to the sending node itself.
	ErrSelfSend = errors.New("gm: send to self is not supported")
)
