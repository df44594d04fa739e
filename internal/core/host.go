package core

import (
	"fmt"

	"repro/internal/gm"
	"repro/internal/sim"
)

// Host-side API of the NIC-based multicast: the calls a GM client program
// makes. A multicast consumes one host send token exactly like a unicast
// send — the single host request is the whole point of the multisend.

// Mcast posts one multicast of data on the given group from port. The
// caller must be the group's root. The call blocks only until the request
// is posted; completion (every packet acknowledged by every child) is
// observable via port.WaitSendDone. The caller must not mutate data until
// then — it is the registered host replica retransmissions read from.
func (e *Ext) Mcast(proc *sim.Proc, port *gm.Port, id gm.GroupID, data []byte) {
	e.McastEpoch(proc, port, id, data, nil)
}

// McastEpoch posts a multicast like Mcast and additionally reports, via
// the firmware callback onEpoch, the group epoch the message stages
// under. Under dynamic membership a message posted during an epoch roll
// is held by the frozen pump and flows entirely in the next epoch; the
// callback is the authoritative attribution (the epoch whose membership
// the message is delivered to), which host-side bookkeeping cannot know
// at post time.
func (e *Ext) McastEpoch(proc *sim.Proc, port *gm.Port, id gm.GroupID, data []byte, onEpoch func(epoch uint32)) {
	if port.NIC() != e.nic {
		panic(fmt.Errorf("%w: Mcast", ErrWrongNIC))
	}
	port.SendGroup(proc, id, data, onEpoch)
}

// McastSync multicasts and waits until every child of every packet in the
// message has acknowledged — the root-side completion the paper's
// multisend benchmarks time ("wait for an acknowledgment from the last
// destination").
func (e *Ext) McastSync(proc *sim.Proc, port *gm.Port, id gm.GroupID, data []byte) {
	e.Mcast(proc, port, id, data)
	port.WaitSendDone(proc)
}
