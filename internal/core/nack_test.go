package core_test

import (
	"bytes"
	"testing"

	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/gm"
	"repro/internal/sim"
	"repro/internal/tree"
)

// mcastLossyRun multicasts a three-packet message down a chain with the
// middle packet dropped on the first hop, returning the leaf delivery time.
func mcastLossyRun(t *testing.T, nacks bool) (sim.Time, uint64) {
	t.Helper()
	cfg := cluster.DefaultConfig(3)
	cfg.GM.EnableNacks = nacks
	c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))
	ports := c.OpenPorts(testPort)
	tr := tree.Chain(0, c.Members())
	c.InstallGroup(21, tr, testPort, testPort)
	dropped := false
	c.Net.DropFn = func(p *fabric.Packet, l *fabric.Link) bool {
		fr, ok := p.Payload.(*gm.Frame)
		if ok && fr.Kind == gm.KindMcastData && fr.Seq == 2 && p.Dst == 1 && !dropped {
			dropped = true
			return true
		}
		return false
	}
	msg := pattern(3 * 4096)
	var leafAt sim.Time
	for n := 1; n < 3; n++ {
		n := n
		c.Eng.Spawn("recv", func(p *sim.Proc) {
			ports[n].Provide(1 << 15)
			ev := ports[n].Recv(p)
			if !bytes.Equal(ev.Data, msg) {
				t.Errorf("node %d corrupted", n)
			}
			if n == 2 {
				leafAt = p.Now()
			}
		})
	}
	c.Eng.Spawn("root", func(p *sim.Proc) {
		c.Nodes[0].Ext.McastSync(p, ports[0], 21, msg)
	})
	c.Eng.Run()
	c.Eng.Kill()
	return leafAt, counter(t, c, core.Component, 1, "mcast_nacks_sent")
}

func TestMcastNacksSpeedUpRecovery(t *testing.T) {
	slow, slowNacks := mcastLossyRun(t, false)
	fast, fastNacks := mcastLossyRun(t, true)
	if slowNacks != 0 {
		t.Fatalf("nacks sent while disabled: %d", slowNacks)
	}
	if fastNacks == 0 {
		t.Fatal("no group nacks sent with fast recovery enabled")
	}
	if fast >= slow {
		t.Fatalf("group nack recovery (%v) not faster than timeout (%v)", fast, slow)
	}
}

func TestMcastNacksUnderRandomLossStillCorrect(t *testing.T) {
	cfg := cluster.DefaultConfig(10)
	cfg.GM.EnableNacks = true
	cfg.LossRate = 0.04
	cfg.Seed = 17
	c := cluster.New(cfg.Nodes, cluster.WithConfig(cfg))
	ports := c.OpenPorts(testPort)
	tr := tree.Binomial(0, c.Members())
	c.InstallGroup(22, tr, testPort, testPort)
	const count = 6
	msgs := make([][]byte, count)
	for i := range msgs {
		msgs[i] = pattern(600 + 1800*i)
		msgs[i][0] = byte(i)
	}
	bad := 0
	for n := 1; n < 10; n++ {
		n := n
		c.Eng.Spawn("recv", func(p *sim.Proc) {
			ports[n].ProvideN(count, 1<<14)
			for i := 0; i < count; i++ {
				if !bytes.Equal(ports[n].Recv(p).Data, msgs[i]) {
					bad++
				}
			}
		})
	}
	c.Eng.Spawn("root", func(p *sim.Proc) {
		for i := 0; i < count; i++ {
			c.Nodes[0].Ext.Mcast(p, ports[0], 22, msgs[i])
		}
		for i := 0; i < count; i++ {
			ports[0].WaitSendDone(p)
		}
	})
	c.Eng.Run()
	if live := c.Eng.LiveProcs(); live != 0 {
		t.Fatalf("stalled with %d live procs", live)
	}
	c.Eng.Kill()
	if bad != 0 {
		t.Fatalf("%d corrupted or reordered deliveries with nacks under loss", bad)
	}
}
