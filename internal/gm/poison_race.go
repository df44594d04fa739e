//go:build race

package gm

const poisonByte = 0xDB

// poison overwrites a buffer the port has back, so a receive loop that reads
// an event's data past its next receive, or a forwarder that lets its Send's
// buffer go back before the send completes, fails the payload checks of the
// -race test and smoke runs instead of reading stale but plausible bytes.
func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}
