// Package repro is a full reproduction, in simulation, of "High
// Performance and Reliable NIC-Based Multicast over Myrinet/GM-2"
// (Yu, Buntinas, Panda — ICPP 2003).
//
// The Myrinet/LANai hardware the paper targets no longer exists, so the
// repository implements the complete stack as a deterministic
// discrete-event simulation with a real data plane: a Myrinet-2000-style
// fabric (internal/myrinet), the LANai NIC hardware model (internal/lanai),
// a GM-2-like reliable user-level protocol (internal/gm), the paper's
// NIC-based multicast as a firmware extension (internal/core), spanning
// tree constructions (internal/tree), an MPICH-GM-like MPI layer
// (internal/mpi), and a measurement harness reproducing every figure of
// the evaluation (internal/harness).
//
// See README.md for a tour, DESIGN.md for the system inventory and
// per-experiment index, and EXPERIMENTS.md for paper-vs-measured results.
// The benchmarks in bench_test.go regenerate each figure's headline
// points, and cmd/mcast, one subcommand per experiment, prints the full
// series and checks the paper's claims:
//
//	go test -bench=. -benchmem
//	go run ./cmd/mcast claims
package repro
