// Package lanai models the hardware resources of a Myrinet NIC built
// around a LANai 9.1 processor: a slow serialized NIC processor, SDMA
// (host→NIC) and RDMA (NIC→host) engines that run concurrently with it,
// finite on-board packet-buffer SRAM, and the host interface (posted
// descriptors in, DMA'd event records out).
//
// The package provides mechanism only; the GM firmware logic that runs on
// these resources lives in package gm, and the paper's multicast extension
// in package core. Keeping them apart mirrors the real system: the authors
// changed firmware, not silicon.
package lanai

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/metrics"
	"repro/internal/sim"
)

// Params describe one NIC's hardware characteristics.
type Params struct {
	// SendBuffers and RecvBuffers are the number of MTU-sized packet
	// buffers carved from NIC SRAM for each direction.
	SendBuffers int
	RecvBuffers int
	// PCINsPerByte is the DMA cost per byte across the host's PCI bus
	// (2.2 ≈ 450 MB/s on the paper's 66 MHz/64-bit bus).
	PCINsPerByte float64
	// DMAStartup is the fixed setup cost of one DMA transaction.
	DMAStartup sim.Time
	// HostPostLatency is the time for a host PIO-posted descriptor to
	// become visible to the NIC processor.
	HostPostLatency sim.Time
	// EventPostCost is the NIC-side cost of DMA-ing an event record into
	// the host's receive queue.
	EventPostCost sim.Time
}

// DefaultParams returns LANai-9.1-era hardware characteristics.
func DefaultParams() Params {
	return Params{
		SendBuffers:     16,
		RecvBuffers:     32,
		PCINsPerByte:    2.2,
		DMAStartup:      700 * sim.Nanosecond,
		HostPostLatency: 250 * sim.Nanosecond,
		EventPostCost:   350 * sim.Nanosecond,
	}
}

// NIC is the hardware model for one network interface. It holds its
// facilities and buffer pools by value; none has a name of its own.
type NIC struct {
	Eng *sim.Engine
	ID  fabric.NodeID
	P   Params

	// CPU is the LANai processor: every firmware action serializes here.
	CPU sim.Facility
	// SDMA moves bytes host→NIC; RDMA moves bytes NIC→host. They operate
	// concurrently with the CPU and with each other.
	SDMA sim.Facility
	RDMA sim.Facility

	Ifc      *fabric.Iface
	SendBufs BufPool
	RecvBufs BufPool

	// RxDispatch is installed by the firmware; it receives every packet
	// that arrives from the wire. The *fabric.Packet is valid only for the
	// duration of the call (see fabric.Iface.Deliver).
	RxDispatch func(*fabric.Packet)

	// paused, when set, makes the NIC deaf: packets arriving from the wire
	// are discarded before the firmware sees them, as during a firmware
	// reload. Reliability above recovers the lost traffic after Resume.
	paused bool

	// m is the block the NIC counts into, never nil: its own, or the one
	// filed in reg (SetMetrics).
	reg *metrics.Registry
	m   *instruments
}

// New attaches a NIC model to a network interface.
func New(eng *sim.Engine, ifc *fabric.Iface, p Params) *NIC {
	n := &NIC{
		Eng:      eng,
		ID:       ifc.ID(),
		P:        p,
		CPU:      sim.NewFacility(eng),
		SDMA:     sim.NewFacility(eng),
		RDMA:     sim.NewFacility(eng),
		Ifc:      ifc,
		SendBufs: newBufPool(eng, ifc.ID(), "sendbufs", p.SendBuffers, nil),
		RecvBufs: newBufPool(eng, ifc.ID(), "recvbufs", p.RecvBuffers, nil),
	}
	ifc.Deliver = func(pkt *fabric.Packet) {
		if n.paused {
			n.m.rxPausedDrops.Inc()
			return
		}
		if n.RxDispatch == nil {
			panic(fmt.Sprintf("lanai: nic %v has no firmware attached", n.ID))
		}
		n.RxDispatch(pkt)
	}
	n.SetMetrics(nil)
	return n
}

// CountRxNoBuffer records a packet dropped for want of a receive buffer.
func (n *NIC) CountRxNoBuffer() {
	n.m.rxNoBuffer.Inc()
}

// Pause makes the NIC stop receiving: every packet arriving from the wire
// is silently discarded until Resume, modelling a firmware reload or a hung
// NIC processor. Host-posted work and already-scheduled DMA continue — only
// the wire-facing receive path goes deaf.
func (n *NIC) Pause() { n.paused = true }

// Resume re-enables packet reception after a Pause.
func (n *NIC) Resume() { n.paused = false }

// Paused reports whether the NIC is currently discarding arrivals.
func (n *NIC) Paused() bool { return n.paused }

// CPUDo serializes cost worth of work on the LANai processor and runs fn
// when it completes. The backlog gauge records (as a high-water mark) how
// far behind the serialized processor was when this task was queued — the
// simulation's analogue of task-queue depth.
func (n *NIC) CPUDo(cost sim.Time, fn func()) {
	if backlog := n.CPU.FreeAt() - n.Eng.Now(); backlog > 0 {
		n.m.cpuBacklogNs.Set(int64(backlog))
	}
	n.m.cpuBusyNs.AddInt(int64(cost))
	n.CPU.Do(cost, fn)
}

// DMATime reports the duration of one DMA of the given size.
func (n *NIC) DMATime(size int) sim.Time {
	return n.P.DMAStartup + sim.PerByte(n.P.PCINsPerByte, size)
}

// HostToNIC schedules an SDMA of size bytes and runs fn at completion.
func (n *NIC) HostToNIC(size int, fn func()) {
	d := n.DMATime(size)
	n.m.sdmaBusyNs.AddInt(int64(d))
	n.SDMA.Do(d, fn)
}

// NICToHost schedules an RDMA of size bytes and runs fn at completion.
func (n *NIC) NICToHost(size int, fn func()) {
	d := n.DMATime(size)
	n.m.rdmaBusyNs.AddInt(int64(d))
	n.RDMA.Do(d, fn)
}

// HostPost models the host posting a descriptor: after the PIO latency the
// NIC processor sees it and runs fn (fn typically charges CPU time).
func (n *NIC) HostPost(fn func()) {
	n.Eng.After(n.P.HostPostLatency, fn)
}

// PostHostEvent DMAs one event record into the host's receive queue: the
// RDMA engine carries it, and fn runs when it has landed — fn is what makes
// the event visible to the host (the firmware's port queues it and wakes
// the reader). Callers pass a pre-bound fn, so posting allocates nothing.
func (n *NIC) PostHostEvent(fn func()) {
	n.m.rdmaBusyNs.AddInt(int64(n.P.EventPostCost))
	n.m.hostEvents.Inc()
	n.RDMA.Do(n.P.EventPostCost, fn)
}
