package chaos

import (
	"bytes"
	"fmt"

	"repro/internal/gm"
	"repro/internal/metrics"
	"repro/internal/sim"
	"repro/internal/tree"
)

// mcastGroup is the one static group the multicast workload streams down.
const mcastGroup gm.GroupID = 1

// Multicast is the static-group workload: Msgs multicast messages of Size
// bytes streamed from node 0 down a Fanout-ary tree (fanout 2 guarantees
// interior forwarding nodes from 4 nodes up). Its invariant is the
// paper's: every receiver gets every byte exactly once, in order, and the
// NICs accepted exactly the packets that takes.
type Multicast struct {
	Msgs   int
	Size   int
	Fanout int
}

func (w Multicast) withDefaults() Multicast {
	if w.Msgs <= 0 {
		w.Msgs = 12
	}
	if w.Size <= 0 {
		w.Size = 10000
	}
	if w.Fanout <= 0 {
		w.Fanout = 2
	}
	return w
}

// MinNodes: a root and one receiver.
func (Multicast) MinNodes() int { return 2 }

func (Multicast) Deadline() sim.Time { return 500 * sim.Millisecond }

func (Multicast) Params() []Stat { return nil }

func (w Multicast) Plan(Config) (Job, error) {
	w = w.withDefaults()
	j := &multicastJob{Multicast: w, msgs: make([][]byte, w.Msgs)}
	for i := range j.msgs {
		j.msgs[i] = payload(i, w.Size)
	}
	return j, nil
}

// payload builds the deterministic byte pattern of message idx — receivers
// recompute it to verify every byte arrived intact and in the right
// message slot.
func payload(idx, size int) []byte {
	b := make([]byte, size)
	for i := range b {
		b[i] = byte(idx*131 + i*29 + 7)
	}
	return b
}

type multicastJob struct {
	Multicast
	msgs  [][]byte
	ports []*gm.Port
	tr    *tree.Tree
}

func (j *multicastJob) Prepare(env *Env) ([]*gm.Port, error) {
	c := env.Cluster
	j.ports = c.OpenPorts(dataPort)
	j.tr = tree.KAry(0, c.Members(), j.Fanout)
	c.InstallGroup(mcastGroup, j.tr, dataPort, dataPort)
	env.Inject(j.tr.Root, j.tr)
	return j.ports, nil
}

func (j *multicastJob) Drive(env *Env) (sim.Time, []string) {
	c, ports := env.Cluster, j.ports
	// Per-node violation lists, merged in node order after the run so the
	// report is deterministic regardless of event interleaving.
	nodeViol := make([][]string, len(c.Nodes))
	finish := make([]sim.Time, len(c.Nodes))
	for _, n := range j.tr.Nodes() {
		if n == j.tr.Root {
			continue
		}
		n := n
		c.SpawnOn(n, "chaos-recv", func(p *sim.Proc) {
			ports[n].ProvideN(j.Msgs, j.Size)
			for i := 0; i < j.Msgs; i++ {
				ev := ports[n].Recv(p)
				if ev.MsgID != uint64(i+1) {
					nodeViol[n] = append(nodeViol[n], fmt.Sprintf(
						"node %d: delivery %d carried msg id %d — lost, duplicated, or reordered message",
						n, i+1, ev.MsgID))
				} else if !bytes.Equal(ev.Data, j.msgs[i]) {
					nodeViol[n] = append(nodeViol[n], fmt.Sprintf(
						"node %d: msg %d payload corrupted", n, i+1))
				}
			}
			finish[n] = p.Now()
		})
	}
	c.SpawnOn(j.tr.Root, "chaos-root", func(p *sim.Proc) {
		ext := c.Nodes[0].Ext
		for i := 0; i < j.Msgs; i++ {
			ext.Mcast(p, ports[0], mcastGroup, j.msgs[i])
		}
		for i := 0; i < j.Msgs; i++ {
			ports[0].WaitSendDone(p)
		}
		finish[0] = p.Now()
	})
	c.RunUntil(env.Cfg.Deadline)
	return collect(finish, nodeViol)
}

// Check is the exact packet census: every receiver takes every packet of
// every message.
func (j *multicastJob) Check(env *Env, d metrics.Snapshot) ([]string, []Stat) {
	c := env.Cluster
	want := uint64(len(c.Nodes)-1) * uint64(j.Msgs) * uint64(c.Cfg.GM.Packets(j.Size))
	return checkCensus(d, want), nil
}
