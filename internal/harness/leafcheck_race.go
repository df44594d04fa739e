//go:build race

package harness

import (
	"bytes"
	"fmt"

	"repro/internal/fabric"
)

// checkLeaf compares what a leaf of the host-based multicast received with
// the message the root sent. Every iteration sends the same bytes, so a
// forwarder that let its buffer go back early shows only where such a
// buffer is overwritten at once (gm.poison, -race builds): the check lives
// with the poison and costs the other builds nothing.
func checkLeaf(n fabric.NodeID, got, want []byte) {
	if !bytes.Equal(got, want) {
		panic(fmt.Sprintf("harness: host-based multicast delivered a corrupted message to node %v", n))
	}
}
