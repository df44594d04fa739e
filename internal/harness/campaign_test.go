package harness

import (
	"bytes"
	"os"
	"strings"
	"testing"

	"repro/internal/chaos"
	"repro/internal/metrics"
)

// sweepCase is one workload's row of the sweep tables below: the
// workloads of one sweep (two churn rates for membership), a pair of its
// scenarios, cluster sizes, and what a shared registry must have seen
// after a sweep.
type sweepCase struct {
	name      string
	ws        []chaos.Workload
	lib       []chaos.Scenario
	scenarios []string
	nodes     []int
	saw       func(*testing.T, metrics.Snapshot)
}

func sweepCases() []sweepCase {
	return []sweepCase{
		{
			"multicast", []chaos.Workload{chaos.Multicast{Msgs: 6, Size: 4096}},
			chaos.Library(), []string{"root-link-outage", "dup-storm"}, []int{4, 8},
			func(t *testing.T, s metrics.Snapshot) {
				if s.CounterSum("net", "injected") == 0 {
					t.Fatal("shared registry saw no fabric traffic")
				}
				if s.CounterSum("net", "duplicated") == 0 {
					t.Fatal("shared registry saw no injected faults (dup-storm duplicates from t=0)")
				}
			},
		},
		{
			"coll", []chaos.Workload{chaos.Collective{Rounds: 2, Veclen: 4}},
			chaos.CollLibrary(), []string{"coll-ack-loss", "coll-dup-storm"}, []int{4, 8},
			func(t *testing.T, s metrics.Snapshot) {
				if s.CounterSum("coll", "duplicates") == 0 {
					t.Fatal("shared registry saw no rejected collective duplicates (coll-dup-storm duplicates from t=0)")
				}
			},
		},
		{
			"member", []chaos.Workload{
				chaos.Churn{Msgs: 10, Size: 2048, Transitions: 4},
				chaos.Churn{Msgs: 10, Size: 2048, Transitions: 8},
			},
			chaos.MemberLibrary(), []string{"churn-clean", "churn-under-loss"}, []int{6, 8},
			func(t *testing.T, s metrics.Snapshot) {
				if s.CounterSum("member", "transitions") == 0 {
					t.Fatal("shared registry saw no membership transitions")
				}
				if s.CounterSum("member", "joins")+s.CounterSum("member", "leaves") == 0 {
					t.Fatal("shared registry saw no joins or leaves")
				}
			},
		},
	}
}

func (c sweepCase) pick(t *testing.T) []chaos.Scenario {
	t.Helper()
	var out []chaos.Scenario
	for _, name := range c.scenarios {
		sc, ok := chaos.Find(c.lib, name)
		if !ok {
			t.Fatalf("scenario %s missing from the %s library", name, c.name)
		}
		out = append(out, sc)
	}
	return out
}

// TestChaosSweepDeterministicAcrossWorkers renders the same campaign
// serial and fanned out and requires byte-identical tables — the
// reproducibility contract chaosbench advertises, for every workload.
func TestChaosSweepDeterministicAcrossWorkers(t *testing.T) {
	for _, c := range sweepCases() {
		t.Run(c.name, func(t *testing.T) {
			serial := DefaultOptions()
			serial.Seed = 7
			serial.Workers = 1
			fanned := DefaultOptions()
			fanned.Seed = 7
			fanned.Workers = 4

			var a, b bytes.Buffer
			WriteCampaignTable(&a, "campaign", serial.CampaignSweep(c.ws, c.pick(t), c.nodes))
			WriteCampaignTable(&b, "campaign", fanned.CampaignSweep(c.ws, c.pick(t), c.nodes))
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("serial and parallel sweeps diverged:\n--- serial ---\n%s--- parallel ---\n%s", a.String(), b.String())
			}
			if rows := strings.Count(a.String(), "\n") - 2; rows != len(c.ws)*len(c.scenarios)*len(c.nodes) {
				t.Fatalf("table has %d rows, want one per workload x scenario x size:\n%s", rows, a.String())
			}
		})
	}
	if CampaignFailures(nil) != 0 {
		t.Fatal("empty result set reported failures")
	}
}

// TestChaosSweepSharedMetrics wires a shared registry through the sweep
// (which forces it serial) and checks the campaign's traffic landed in it.
func TestChaosSweepSharedMetrics(t *testing.T) {
	for _, c := range sweepCases() {
		t.Run(c.name, func(t *testing.T) {
			o := DefaultOptions()
			o.Seed = 7
			o.Workers = 4 // must be overridden to serial by the shared registry
			o.Metrics = metrics.New()
			results := o.CampaignSweep(c.ws[len(c.ws)-1:], c.pick(t), c.nodes[len(c.nodes)-1:])
			if n := CampaignFailures(results); n != 0 {
				t.Fatalf("%d points failed under shared metrics", n)
			}
			c.saw(t, o.Metrics.Snapshot())
		})
	}
}

// TestWriteChaosTableItemizesFailures pins the failure rendering: a FAIL
// row must be followed by its itemized violations, under a heading that
// names the point by its size and its workload's parameters.
func TestWriteChaosTableItemizesFailures(t *testing.T) {
	for _, c := range []struct {
		name string
		res  chaos.Result
		want []string
	}{
		{"multicast", chaos.Result{
			Scenario: "doomed", Nodes: 4,
			Outcome: chaos.Outcome{Violations: []string{"node 2: lost a byte"}},
		}, []string{"FAIL", "doomed @ 4 nodes violated:", "node 2: lost a byte"}},
		{"member", chaos.Result{
			Scenario: "doomed", Nodes: 8, Params: []chaos.Stat{{Name: "churn", Value: 5}},
			Outcome: chaos.Outcome{Violations: []string{"node 3: delivered a payload from a departed epoch"}},
		}, []string{"FAIL", "doomed @ 8 nodes / churn 5 violated:", "departed epoch"}},
	} {
		t.Run(c.name, func(t *testing.T) {
			var buf bytes.Buffer
			WriteCampaignTable(&buf, "campaign", []chaos.Result{c.res})
			for _, want := range c.want {
				if !strings.Contains(buf.String(), want) {
					t.Fatalf("table output missing %q:\n%s", want, buf.String())
				}
			}
		})
	}
}

// parseCampaignTable reads a rendered campaign table — title line, header
// line, one row per point, then whatever the binary printed after — into
// one header-name -> cell map per row. No cell contains a space.
func parseCampaignTable(t *testing.T, text string) []map[string]string {
	t.Helper()
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) < 2 {
		t.Fatalf("not a campaign table:\n%s", text)
	}
	header := strings.Fields(lines[1])
	var rows []map[string]string
	for _, line := range lines[2:] {
		cells := strings.Fields(line)
		if len(cells) != len(header) {
			break // the "all N campaign points passed" trailer
		}
		row := make(map[string]string, len(header))
		for i, h := range header {
			row[h] = cells[i]
		}
		rows = append(rows, row)
	}
	return rows
}

// TestCampaignGoldens holds the one campaign runner to what the three it
// replaced printed. testdata/ holds the stdout of `chaosbench -short
// -seed 1`, `chaosbench -coll -short -seed 1` and `memberbench -short
// -seed 1` at the commit before the merge (757736f), on each fabric,
// captured before any code was touched and never to be regenerated. Every
// cell of those tables must reappear unchanged, row for row and by header
// name: the merged table may add columns and order them its own way, but
// no verdict, recovery time or count may move.
func TestCampaignGoldens(t *testing.T) {
	for _, c := range []struct {
		file  string
		ws    []chaos.Workload
		lib   []chaos.Scenario
		nodes []int
	}{
		{"chaosbench_short_seed1", []chaos.Workload{chaos.Multicast{Msgs: 10}}, chaos.Library(), []int{4, 8}},
		{"chaosbench_coll_short_seed1", []chaos.Workload{chaos.Collective{}}, chaos.CollLibrary(), []int{4, 8}},
		{"memberbench_short_seed1", []chaos.Workload{chaos.Churn{Msgs: 10, Transitions: 8}}, chaos.MemberLibrary(), []int{6, 8}},
	} {
		for _, fabricName := range []string{"myrinet", "clos"} {
			name := c.file + "_" + fabricName
			t.Run(name, func(t *testing.T) {
				golden, err := os.ReadFile("testdata/" + name + ".txt")
				if err != nil {
					t.Fatal(err)
				}
				want := parseCampaignTable(t, string(golden))

				o := DefaultOptions()
				o.Seed = 1
				if o.Fabric, err = FabricPreset(fabricName); err != nil {
					t.Fatal(err)
				}
				var buf bytes.Buffer
				WriteCampaignTable(&buf, name, o.CampaignSweep(c.ws, c.lib, c.nodes))
				got := parseCampaignTable(t, buf.String())

				if len(got) != len(want) || len(want) != len(c.lib)*len(c.nodes) {
					t.Fatalf("%d rows, golden has %d, campaign has %d points:\n%s",
						len(got), len(want), len(c.lib)*len(c.nodes), buf.String())
				}
				for i, row := range want {
					for h, cell := range row {
						if got[i][h] != cell {
							t.Errorf("row %d (%s @ %s nodes) column %q = %q, golden %q",
								i, row["scenario"], row["nodes"], h, got[i][h], cell)
						}
					}
				}
			})
		}
	}
}
