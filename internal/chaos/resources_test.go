package chaos

import (
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/fabric"
	"repro/internal/gm"
)

// A packet descriptor that is taken and not given back is reported, even one
// that holds no NIC buffer: here a stray group acknowledgment's, caught
// between its arrival and its turn on the LANai. Once the turn has come the
// NIC is idle again and nothing is reported.
func TestCheckResourcesReportsHeldDescriptor(t *testing.T) {
	c := cluster.New(2)
	ports := c.OpenPorts(1)
	c.Run()
	c.Net.Iface(1).Inject(&fabric.Packet{Src: 1, Dst: 0, Size: c.Cfg.GM.AckBytes,
		Ctl: fabric.Ctl{Kind: uint8(gm.KindMcastAck), Group: 99}})
	for free, made := c.Nodes[0].NIC.Descriptors(); free == made; free, made = c.Nodes[0].NIC.Descriptors() {
		if !c.Eng.Step() {
			t.Fatal("the acknowledgment never reached its NIC")
		}
	}
	v := checkResources(c, ports)
	if len(v) != 1 || !strings.Contains(v[0], "node 0: 1/1 packet descriptors leaked") {
		t.Errorf("with an acknowledgment awaiting its turn: violations %q, want the one descriptor", v)
	}
	c.Run()
	if v := checkResources(c, ports); len(v) != 0 {
		t.Errorf("idle NICs: violations %q, want none", v)
	}
}
