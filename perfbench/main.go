// Command perfbench is the repository's benchmark. It runs one workload
// on the protocol stack through its public entry points, checks the
// outputs, and prints every metric by name and unit; the last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end ones, measured with no
// instrumentation. With --trace 1 a separate run reports per-layer
// numbers from spans around the calls into each layer, the obs registry's
// counters, a CPU profile split by package, and timings of the crypt and
// wire calls on frames sampled from the workload. README.md describes
// the workloads and metrics. Build and run it with run.sh.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/xrand"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output line. Attempted counts operations,
// one setup and the offered readings per iteration; Failed counts those
// of iterations the correctness gate rejects. A reading the burst
// channel loses is not a gate failure: delivery_ratio reports that share.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// errs explains a run that is not correct; printed to stderr.
	errs []error
}

func (r *result) fail(err error) {
	r.Correct = false
	r.errs = append(r.errs, err)
}

func (r *result) set(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
}

func main() {
	workload := flag.String("workload", "", "workload: keysetup, convergecast or arq-burst")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 25, "how long the measured iterations run")
	trace := flag.Int("trace", 0, "1 for the traced run that reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for the traced run's span file")
	flag.Parse()
	s, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %v, trace %d)\n", *workload, *seconds, *trace)
		os.Exit(2)
	}
	// The workloads run on one goroutine. A second P would only run the
	// collector's background workers beside it, which made the engine's
	// own CPU time swing roughly twice as much between runs.
	runtime.GOMAXPROCS(1)
	budget := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 1 {
		res, err = runTraced(s, *seed, budget, filepath.Join(*out, fmt.Sprintf("spans-%s-%d.json", s.name, *seed)))
	} else {
		res = runUntraced(s, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	for _, e := range res.errs {
		fmt.Fprintln(os.Stderr, "perfbench: correctness gate:", e)
	}
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("%-28s %16.6g %s\n", n, res.Metrics[n].Value, res.Metrics[n].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// graph is one of a run's deployments, with what its visits measured.
type graph struct {
	seed uint64
	// ref is the first visit's simulated-time results; every later
	// visit, traced or not, must reproduce them exactly.
	ref      *simStats
	lat      latencies
	data, ht []float64 // host seconds per visit: data phase, and in all
}

// runner repeats a workload's iterations over its graphs and gates each
// one: the deployment and delivery checks inside the iteration, and
// identical simulated-time results on every repeat of a graph's seed.
type runner struct {
	s      spec
	graphs []graph
	res    result
}

func newRunner(s spec, seed uint64) *runner {
	r := &runner{s: s, res: result{Correct: true, Metrics: make(map[string]metric)}}
	for g := 0; g < s.graphs; g++ {
		r.graphs = append(r.graphs, graph{seed: xrand.TrialSeed(seed, 0, g)})
	}
	return r
}

// iterate runs one iteration on graph g and reports whether it passed
// its gates. Passing iterations' host times are recorded when record is
// set.
func (r *runner) iterate(g int, h hooks, record bool) (iteration, bool) {
	gr := &r.graphs[g]
	it, err := r.s.run(gr.seed, h)
	offered := r.s.senders
	r.res.Attempted += 1 + offered
	if err != nil {
		r.res.Failed += 1 + offered
		r.res.fail(fmt.Errorf("graph seed %d: %w", gr.seed, err))
		return it, false
	}
	if gr.ref == nil {
		ref := it.sim
		gr.ref, gr.lat = &ref, it.lat
	} else if it.sim != *gr.ref {
		r.res.Failed += 1 + offered
		r.res.fail(fmt.Errorf("repeat of graph seed %d gave %+v, first run gave %+v", gr.seed, it.sim, *gr.ref))
		return it, false
	}
	if record {
		gr.data = append(gr.data, it.dataHost.Seconds())
		gr.ht = append(gr.ht, (it.setupHost + it.dataHost).Seconds())
	}
	return it, true
}

// rounds visits every graph in turn until every graph has been visited
// once and the budget is spent; the last round may be partial. It stops
// at the first failed iteration.
func (r *runner) rounds(budget time.Duration, visit func(g int) bool) {
	start := time.Now()
	for i := 0; i < len(r.graphs) || time.Since(start) < budget; i++ {
		if !visit(i % len(r.graphs)) {
			return
		}
	}
}

// runUntraced measures the end-to-end metrics: a warm-up iteration on
// the first graph, which the first graph's measured visit must repeat
// exactly, then rounds over the workload's graphs until the budget is
// spent, each timed region starting after a forced GC. Simulated-time
// metrics pool all graphs; host times are medians over each graph's
// visits, pooled as total work over total time.
func runUntraced(s spec, seed uint64, budget time.Duration) result {
	r := newRunner(s, seed)
	if _, ok := r.iterate(0, hooks{}, false); !ok {
		return r.res
	}
	var setup, heap []float64
	ok := true
	r.rounds(budget, func(g int) bool {
		var it iteration
		it, ok = r.iterate(g, hooks{}, true)
		setup = append(setup, it.setupHost.Seconds())
		heap = append(heap, float64(it.heapBytes))
		return ok
	})
	if !ok {
		return r.res
	}
	// Pool the graphs: simulated-time results add up, and host time is
	// each graph's median visit.
	var st simStats
	var lat latencies
	var hostTime, dataTime float64
	for _, gr := range r.graphs {
		st.Offered += gr.ref.Offered
		st.Delivered += gr.ref.Delivered
		st.Events += gr.ref.Events
		st.DataTx += gr.ref.DataTx
		st.SetupTxTotal += gr.ref.SetupTxTotal
		st.KeysPerNode += gr.ref.KeysPerNode / float64(len(r.graphs))
		lat = append(lat, gr.lat...)
		hostTime += median(gr.ht)
		dataTime += median(gr.data)
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	fmt.Printf("%s seed %d: %d graphs, %d measured iterations, %d pooled latency samples\n", s.name, seed, len(r.graphs), len(setup), len(lat))
	r.res.set("setup_s", "s", median(setup))
	r.res.set("events_per_s", "events/s", float64(st.Events)/hostTime)
	r.res.set("readings_per_s", "readings/s", float64(st.Delivered)/dataTime)
	r.res.set("delivery_ratio", "ratio", float64(st.Delivered)/float64(st.Offered))
	r.res.set("reading_latency_p50_ms", "ms", float64(lat.quantile(0.5))/1e6)
	r.res.set("reading_latency_p99_ms", "ms", float64(lat.quantile(0.99))/1e6)
	r.res.set("tx_per_reading", "frames", float64(st.DataTx)/float64(st.Delivered))
	r.res.set("setup_tx_per_node", "frames", float64(st.SetupTxTotal)/float64(s.n*len(r.graphs)))
	r.res.set("keys_per_node", "keys", st.KeysPerNode)
	r.res.set("peak_rss_mib", "MiB", float64(obs.PeakRSSBytes())/(1<<20))
	r.res.set("heap_bytes_per_node", "B", median(heap)/float64(s.n))
	return r.res
}

// runTraced measures the per-layer metrics. An untraced iteration on the
// first graph after the warm-up is the reference for the runtime's
// allocation counts and for the tracing overhead; traced rounds then run
// under a CPU profile until the budget is spent, and must reproduce the
// untraced simulated-time results bit for bit. Counters sum over the
// first traced round. The spans go to spansPath.
func runTraced(s spec, seed uint64, budget time.Duration, spansPath string) (result, error) {
	r := newRunner(s, seed)
	if _, ok := r.iterate(0, hooks{}, false); !ok {
		return r.res, nil
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ref, ok := r.iterate(0, hooks{}, false)
	runtime.ReadMemStats(&after)
	if !ok {
		return r.res, nil
	}
	refHost := (ref.setupHost + ref.dataHost).Seconds()

	tr := newTracer(s.name)
	capture := newFrameSample()
	counters := make(map[string]float64)
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return r.res, fmt.Errorf("cpu profile: %w", err)
	}
	visits := 0
	r.rounds(budget, func(g int) bool {
		h := hooks{reg: obs.NewRegistry(), tr: tr}
		if visits == 0 {
			h.capture = capture
		}
		it, ok := r.iterate(g, h, true)
		if ok && visits < len(r.graphs) {
			for name, v := range it.counters {
				if c, isCounter := v.(uint64); isCounter {
					counters[name] += float64(c)
				}
			}
		}
		visits++
		return ok
	})
	pprof.StopCPUProfile()
	if !r.res.Correct {
		return r.res, nil
	}
	samples, total, err := layerSamples(prof.Bytes())
	if err != nil {
		return r.res, err
	}
	if err := os.MkdirAll(filepath.Dir(spansPath), 0o755); err != nil {
		return r.res, err
	}
	if err := tr.write(spansPath); err != nil {
		return r.res, fmt.Errorf("write spans: %w", err)
	}

	m := &r.res
	spans := tr.durations()
	m.set("core.deploy_s", "s", median(spans["core.deploy"]))
	m.set("core.setup_s", "s", median(spans["core.setup"]))
	m.set("core.data_s", "s", median(spans["core.data"]))
	m.set("topology.generate_s", "s", median(spans["topology.generate"]))
	for _, c := range []struct{ metric, counter string }{
		{"core.setup_tx", "core_setup_tx_total"},
		{"core.setup_retx", "core_setup_retx_total"},
		{"core.data_retx", "core_data_retx_total"},
		{"core.degraded", "core_degraded_total"},
		{"core.bs_deliveries", "core_bs_deliveries_total"},
		{"sim.events", "sim_events_total"},
		{"sim.tx", "sim_tx_total"},
		{"sim.rx", "sim_rx_total"},
		{"sim.lost", "sim_lost_total"},
		{"transport.tx_data", "transport_tx_data_total"},
		{"transport.tx_acks", "transport_tx_acks_total"},
		{"transport.retransmits", "transport_retransmits_total"},
		{"transport.dup_drops", "transport_dup_drops_total"},
		{"transport.send_failures", "transport_send_failures_total"},
		{"faults.burst_drops", "faults_burst_drops_total"},
	} {
		m.set(c.metric, "count", counters[c.counter])
	}
	m.set("sim.rx_per_tx", "ratio", ratio(counters["sim_rx_total"], counters["sim_tx_total"]))
	m.set("transport.retx_ratio", "ratio", ratio(counters["transport_retransmits_total"], counters["transport_tx_data_total"]))
	simEvents := 0.0
	if !s.lab {
		simEvents = float64(ref.sim.Events)
	}
	m.set("sim.ns_per_event", "ns", ratio(refHost*1e9, simEvents))
	for _, l := range layers {
		m.set(l+".self_cpu_share", "ratio", ratio(float64(samples[l]), float64(total)))
	}
	ev := float64(ref.sim.Events)
	m.set("runtime.alloc_bytes_per_event", "B", ratio(float64(after.TotalAlloc-before.TotalAlloc), ev))
	m.set("runtime.mallocs_per_event", "count", ratio(float64(after.Mallocs-before.Mallocs), ev))
	m.set("runtime.gc_cycles", "count", float64((after.NumGC-after.NumForcedGC)-(before.NumGC-before.NumForcedGC)))

	lc := measureLayerCosts(capture, core.AuthorityFromSeed(r.graphs[0].seed, core.DefaultConfig().ChainLength))
	m.set("crypt.newsealer_ns", "ns", lc.newSealer)
	m.set("crypt.derivekey_ns", "ns", lc.deriveKey)
	m.set("crypt.open_ns", "ns", lc.open)
	m.set("crypt.seal_ns", "ns", lc.seal)
	m.set("wire.parse_ns", "ns", lc.parse)

	m.set("bench.trace_overhead", "ratio", median(r.graphs[0].ht)/refHost-1)
	m.set("bench.profile_samples", "count", float64(total))
	return r.res, nil
}

// ratio is a/b, or 0 when b is 0 (a layer the workload does not use).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
