package workload

import (
	"fmt"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/lanai"
	"repro/internal/sim"
)

// Report is the outcome of running a workload on a cluster.
type Report struct {
	Messages  int
	Bytes     int
	Elapsed   sim.Time
	ThroughMB float64 // aggregate goodput in MB/s of virtual time
	// MeanLatencyUs is the mean message latency (injection to host
	// delivery) in microseconds.
	MeanLatencyUs float64
	MaxLatencyUs  float64
	Retransmits   uint64
	RxNoBuffer    uint64
	MaxCPUUtil    float64 // busiest NIC processor utilization
}

// Run drives the workload on a fresh cluster built from cfg and reports
// aggregate behaviour. An optional background broadcast group can be
// layered on by the caller before invoking Run via the returned cluster —
// here we keep it to point-to-point traffic.
func Run(cfg *cluster.Config, spec Spec) (Report, error) {
	return RunWith(cfg, spec, nil)
}

// RunWith is Run with a callback invoked after the cluster is built and
// before any process spawns or event fires — engine-equivalence tests
// attach fire hooks here; nil behaves exactly like Run.
func RunWith(cfg *cluster.Config, spec Spec, attach func(*cluster.Cluster)) (Report, error) {
	spec.Nodes = cfg.Nodes
	c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))
	if attach != nil {
		attach(c)
	}
	msgs, err := Generate(spec, c.RNG)
	if err != nil {
		return Report{}, err
	}
	ports := c.OpenPorts(1)

	// Count per-destination expectations and pre-post tokens. Sinks run on
	// their own node's engine, so each destination accumulates latencies in
	// its own slice (a shared append would race on a sharded cluster) and
	// the slices fold in node order after the run.
	tot := Summarize(msgs)
	perDst := make([][]sim.Time, cfg.Nodes)
	for d, n := range tot.PerDst {
		d, n := d, n
		c.SpawnOn(fabric.NodeID(d), "sink", func(p *sim.Proc) {
			ports[d].ProvideN(n, 64*1024)
			for i := 0; i < n; i++ {
				ev := ports[d].Recv(p)
				// The first 8 payload bytes carry the injection time.
				if len(ev.Data) >= 8 {
					t0 := sim.Time(0)
					for b := 7; b >= 0; b-- {
						t0 = t0<<8 | sim.Time(ev.Data[b])
					}
					perDst[d] = append(perDst[d], p.Now()-t0)
				}
			}
		})
	}
	// One source process per node replays its injection schedule.
	perSrc := make(map[int][]Message)
	for _, m := range msgs {
		perSrc[m.Src] = append(perSrc[m.Src], m)
	}
	for s, list := range perSrc {
		s, list := s, list
		c.SpawnOn(fabric.NodeID(s), "src", func(p *sim.Proc) {
			for _, m := range list {
				if m.At > p.Now() {
					p.Sleep(m.At - p.Now())
				}
				size := m.Size
				if size < 8 {
					size = 8
				}
				buf := make([]byte, size)
				t0 := p.Now()
				for b := 0; b < 8; b++ {
					buf[b] = byte(t0 >> (8 * b))
				}
				ports[s].Send(p, fabric.NodeID(m.Dst), 1, buf)
			}
			for range list {
				ports[s].WaitSendDone(p)
			}
		})
	}
	c.Run()
	if live := c.LiveProcs(); live != 0 {
		c.Kill()
		return Report{}, fmt.Errorf("workload: stalled with %d live processes", live)
	}
	c.Kill()

	end := c.Now()
	rep := Report{
		Messages: tot.Messages,
		Bytes:    tot.Bytes,
		Elapsed:  end,
	}
	if end > 0 {
		rep.ThroughMB = float64(tot.Bytes) / end.Micros()
	}
	var sum, worst sim.Time
	count := 0
	for _, ls := range perDst {
		for _, l := range ls {
			sum += l
			count++
			if l > worst {
				worst = l
			}
		}
	}
	if count > 0 {
		rep.MeanLatencyUs = sum.Micros() / float64(count)
		rep.MaxLatencyUs = worst.Micros()
	}
	for _, n := range c.Nodes {
		reg := n.HW.Registry()
		rep.Retransmits += reg.Counter(gm.Component, int(n.ID), "retransmits").Value()
		rep.RxNoBuffer += reg.Counter(lanai.Component, int(n.ID), "rx_nobuffer").Value()
		if u := n.HW.CPU.Utilization(); u > rep.MaxCPUUtil {
			rep.MaxCPUUtil = u
		}
	}
	return rep, nil
}
