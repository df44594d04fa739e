package cluster_test

import (
	"testing"

	"repro/internal/clos"
	"repro/internal/cluster"
)

// BenchmarkClusterBuild times cluster.New alone, at the host counts of the
// set-up-heavy benchmark workloads: a 2048-host Myrinet and a 1024-host
// three-tier Clos. With -benchmem it sizes a set-up change in objects and
// bytes per build without running a workload.
func BenchmarkClusterBuild(b *testing.B) {
	for _, bc := range []struct {
		name  string
		hosts int
		opts  []cluster.Option
	}{
		{"myrinet_2048", 2048, nil},
		{"clos_1024", 1024, []cluster.Option{cluster.WithFabric(clos.Default())}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cluster.New(bc.hosts, bc.opts...)
			}
		})
	}
}
