package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// tiny are the workloads shrunk so the whole suite runs in seconds.
var tiny = []spec{
	{name: "keysetup", graphs: 2, n: 300, density: 10, senders: 20, window: 100 * time.Millisecond},
	{name: "convergecast", graphs: 3, n: 200, density: 10, senders: 60, window: 100 * time.Millisecond},
	{name: "arq-burst", graphs: 2, n: 150, density: 10, senders: 30, window: time.Second, lab: true},
}

type named struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchFile struct {
	Workloads []named `json:"workloads"`
	EndToEnd  []named `json:"end_to_end"`
	PerLayer  []named `json:"per_layer"`
}

func loadBenchFile(t *testing.T) benchFile {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchFile
	if err := json.Unmarshal(b, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// checkMetrics fails unless res reports exactly the listed metrics, each
// with its listed unit.
func checkMetrics(t *testing.T, workload string, res result, want []named) {
	t.Helper()
	if len(res.Metrics) != len(want) {
		t.Errorf("%s: %d metrics reported, %d listed", workload, len(res.Metrics), len(want))
	}
	for _, m := range want {
		got, ok := res.Metrics[m.Name]
		if !ok {
			t.Errorf("%s: metric %s missing", workload, m.Name)
		} else if got.Unit != m.Unit {
			t.Errorf("%s: metric %s in %q, listed in %q", workload, m.Name, got.Unit, m.Unit)
		}
	}
}

func TestWorkloadsMatchBenchmarkFile(t *testing.T) {
	bf := loadBenchFile(t)
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %s not in the program", w.Name)
		}
		if tiny[i].name != w.Name {
			t.Errorf("tiny workload %d is %s, BENCHMARK.json lists %s", i, tiny[i].name, w.Name)
		}
	}
}

// TestMetricsAndLayers runs every workload untraced and traced: each
// reports every listed metric with its unit, passes its gates, and the
// traced run's counters show which layers the workload bypasses.
func TestMetricsAndLayers(t *testing.T) {
	bf := loadBenchFile(t)
	for _, s := range tiny {
		res := runUntraced(s, 7, 0)
		if !res.Correct || res.Failed != 0 {
			t.Fatalf("%s untraced: correct=%v failed=%d errs=%v", s.name, res.Correct, res.Failed, res.errs)
		}
		checkMetrics(t, s.name, res, bf.EndToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v", s.name, name, m.Value)
			}
		}

		spans := filepath.Join(t.TempDir(), "spans.json")
		tr, err := runTraced(s, 7, 0, spans)
		if err != nil {
			t.Fatal(err)
		}
		if !tr.Correct || tr.Failed != 0 {
			t.Fatalf("%s traced: correct=%v failed=%d errs=%v", s.name, tr.Correct, tr.Failed, tr.errs)
		}
		checkMetrics(t, s.name, tr, bf.PerLayer)
		v := func(name string) float64 { return tr.Metrics[name].Value }
		if got, want := v("core.bs_deliveries"), res.Metrics["delivery_ratio"].Value*float64(s.graphs*s.senders); got != want {
			t.Errorf("%s: obs counted %v base-station deliveries, the gate saw %v", s.name, got, want)
		}
		if s.lab {
			if v("sim.events") != 0 || v("sim.self_cpu_share") != 0 {
				t.Errorf("%s: simulator active on the Lab: events %v, cpu share %v", s.name, v("sim.events"), v("sim.self_cpu_share"))
			}
			if v("transport.tx_data") == 0 || v("faults.burst_drops") == 0 {
				t.Errorf("%s: transport or burst idle on the Lab", s.name)
			}
		} else {
			if v("sim.events") == 0 {
				t.Errorf("%s: no simulator events", s.name)
			}
			if v("transport.tx_data") != 0 || v("transport.retransmits") != 0 {
				t.Errorf("%s: transport active on the simulator", s.name)
			}
		}
		for _, name := range []string{"crypt.newsealer_ns", "crypt.open_ns", "wire.parse_ns", "bench.profile_samples"} {
			if v(name) <= 0 {
				t.Errorf("%s: %s is %v", s.name, name, v(name))
			}
		}
		var list []span
		b, err := os.ReadFile(spans)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(b, &list); err != nil || len(list) == 0 {
			t.Fatalf("%s: span file holds %d spans (%v)", s.name, len(list), err)
		}
		for _, sp := range list {
			if sp.End < sp.Start || sp.Workload != s.name {
				t.Errorf("%s: bad span %+v", s.name, sp)
			}
		}
	}
}

// TestSimulatedMetricsRepeat runs each workload twice with one seed: the
// simulated-time metrics must be identical, and a third seed must give
// other inputs.
func TestSimulatedMetricsRepeat(t *testing.T) {
	simulated := []string{"delivery_ratio", "reading_latency_p50_ms", "reading_latency_p99_ms",
		"tx_per_reading", "setup_tx_per_node", "keys_per_node"}
	for _, s := range tiny {
		a, b, c := runUntraced(s, 3, 0), runUntraced(s, 3, 0), runUntraced(s, 4, 0)
		same := true
		for _, name := range simulated {
			if a.Metrics[name] != b.Metrics[name] {
				t.Errorf("%s: %s was %v, then %v on the same seed", s.name, name, a.Metrics[name].Value, b.Metrics[name].Value)
			}
			same = same && a.Metrics[name] == c.Metrics[name]
		}
		if same {
			t.Errorf("%s: seeds 3 and 4 gave identical simulated metrics", s.name)
		}
	}
}

func TestGateTripsOnCorruptedDelivery(t *testing.T) {
	for _, s := range tiny {
		corrupt := hooks{tamper: func(d []core.Delivery) { d[len(d)/2].Data[0] ^= 0x80 }}
		if _, err := s.run(5, corrupt); err == nil || !strings.Contains(err.Error(), "data gate") {
			t.Errorf("%s: corrupted delivery passed the gate (err %v)", s.name, err)
		}
		r := newRunner(s, 5)
		if _, ok := r.iterate(0, corrupt, false); ok || r.res.Correct || r.res.Failed == 0 {
			t.Errorf("%s: runner did not count the gate failure: %+v", s.name, r.res)
		}
	}
}
