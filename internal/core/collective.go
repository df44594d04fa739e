package core

import (
	"repro/internal/fabric"
	"repro/internal/gm"
)

// Collective is the NIC-resident collective engine installed alongside the
// multicast extension (internal/coll implements it). The extension routes
// collective wire kinds (barrier, reduce, gather, ring) to it; the engine in
// turn reads the extension's group table for tree neighborhoods (GroupView)
// and reuses Mcast for result distribution. The split keeps the import
// direction one-way: coll imports core, never the reverse.
type Collective interface {
	// HandleRx consumes one collective wire frame from src (firmware
	// context); HandleCtl one collective acknowledgment, a control packet.
	HandleRx(src fabric.NodeID, fr *gm.Frame) bool
	HandleCtl(src fabric.NodeID, c fabric.Ctl) bool
}

// SetCollective wires a collective engine into the extension. Installed
// once, right after the extension itself (cluster wiring does both).
func (e *Ext) SetCollective(c Collective) { e.coll = c }

// CollectiveEngine returns the wired collective engine (nil if none).
func (e *Ext) CollectiveEngine() Collective { return e.coll }

// GroupView exposes one group-table entry's tree neighborhood to the
// collective engine (firmware context): the combine-and-forward collectives
// reduce up and multisend down the same preposted tree the multicast uses.
func (e *Ext) GroupView(id gm.GroupID) (root, parent fabric.NodeID, children []fabric.NodeID, port gm.PortID, ok bool) {
	g := e.group(id)
	if g == nil {
		return 0, 0, nil, 0, false
	}
	return g.root, g.parent, g.children, g.port, true
}
