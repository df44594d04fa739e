//go:build race

package gm

const poisonByte = 0xDB

// poison overwrites a released buffer, so a receive loop that releases
// before it is finished with the data — or a forwarder that releases before
// its Send completes — fails the payload checks of the -race test and smoke
// runs instead of reading stale but plausible bytes.
func poison(b []byte) {
	for i := range b {
		b[i] = poisonByte
	}
}
