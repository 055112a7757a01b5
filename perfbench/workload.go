package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"runtime"
	"sort"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/obs"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/transport"
	"repro/internal/xrand"
)

// spec is one workload's shape. Every workload deploys a fresh network
// from the seed, runs key setup, then offers an open-loop data phase in
// simulated time: each sender sends one reading at its own instant,
// evenly spaced across window, whatever has been delivered before.
type spec struct {
	name string
	// graphs is how many deployments, each from its own seed derived
	// from the run's seed, one round of the workload covers. Frames per
	// reading differ by a fifth from one random graph to the next, so
	// every metric pools a round's graphs.
	graphs  int
	n       int
	density float64
	senders int
	window  time.Duration
	// lab hosts the protocol on transport.Lab with per-link ARQ under a
	// Gilbert-Elliott burst covering the whole run, instead of on the
	// simulator's single-shard engine.
	lab bool
}

// workloads are the benchmark's workloads at full size; README.md says
// why each exists.
var workloads = map[string]spec{
	"keysetup":     {name: "keysetup", graphs: 16, n: 10000, density: 10, senders: 120, window: 120 * time.Millisecond},
	"convergecast": {name: "convergecast", graphs: 48, n: 2000, density: 10, senders: 200, window: 100 * time.Millisecond},
	"arq-burst":    {name: "arq-burst", graphs: 32, n: 1000, density: 10, senders: 80, window: 160 * time.Millisecond, lab: true},
}

// Lab workload constants. The burst parameters are the ARQBurst chaos
// family's shape; labSettle leaves room for key setup (OperationalAt is
// about 650ms) and the beacon flood under loss.
const (
	labSettle      = 2 * time.Second
	burstPGB       = 0.05
	burstPBG       = 0.25
	burstLossBad   = 0.5
	saltBurst      = 0x5c4e3e05
	drainAfterData = time.Second
)

// simStats are the simulated-time results of one iteration. They are a
// pure function of the workload and seed, so every iteration of a run —
// traced or not — must produce identical values.
type simStats struct {
	Offered, Delivered int
	// Events is the engine's event count (sim) or the number of
	// behavior callbacks (Lab, which exposes no event count).
	Events       int
	DataTx       int
	LatencyP50   time.Duration
	LatencyP99   time.Duration
	KeysPerNode  float64
	SetupTxTotal int
}

// latencies are an iteration's reading latencies, sorted.
type latencies []time.Duration

// iteration is what one deploy-setup-data pass measured.
type iteration struct {
	sim       simStats
	setupHost time.Duration // CPU time from deployment start until setup is done
	dataHost  time.Duration // CPU time of the data phase, after a forced GC
	heapBytes uint64        // live heap after setup and a forced GC
	lat       latencies
	counters  map[string]any
}

// hooks are the traced run's instruments; the zero value runs untraced.
type hooks struct {
	reg     *obs.Registry
	tr      *tracer
	capture *frameSample
	// tamper, if set, sees the deliveries before the data gate does;
	// tests corrupt one to prove the gate trips.
	tamper func([]core.Delivery)
}

func (h hooks) span(name string, parent int) (int, func()) {
	if h.tr == nil {
		return 0, func() {}
	}
	return h.tr.begin(name, parent)
}

// payload is the 4-byte reading origin sends, derived from its node
// index, so the gate can check every delivered plaintext against what
// its origin sent.
func payload(origin int) []byte {
	var b [4]byte
	binary.BigEndian.PutUint32(b[:], uint32(origin)*0x9e3779b1)
	return b[:]
}

// layout is an iteration's input, fixed by the workload and seed before
// any timing starts: the radio graph, the base station's node, and the
// senders of the data phase.
type layout struct {
	graph   *topology.Graph
	bs      int
	senders []int
}

// graphStream is the random stream core.Deploy draws its graph from;
// the benchmark draws the same graph to choose the base station and the
// senders.
func graphStream(seed uint64) *xrand.RNG { return xrand.New(seed).Split(1) }

// layout generates the graph and places the base station on the
// lowest-indexed node whose degree equals the target density, so the
// neighborhood every reading funnels through has the same size on every
// graph. Senders are spread evenly over the nodes with a radio path to
// the base station.
func (s spec) layout(seed uint64) (layout, error) {
	g, err := topology.Generate(graphStream(seed), topology.Config{N: s.n, Density: s.density, Metric: geom.Torus})
	if err != nil {
		return layout{}, err
	}
	bs := 0
	for i := 0; i < g.N(); i++ {
		if g.Degree(i) == int(s.density+0.5) {
			bs = i
			break
		}
	}
	var reachable []int
	for i, h := range g.HopCounts(bs) {
		if h > 0 {
			reachable = append(reachable, i)
		}
	}
	l := layout{graph: g, bs: bs}
	if len(reachable) == 0 {
		return l, fmt.Errorf("%s: base station %d has no neighbors", s.name, bs)
	}
	for j := 0; j < s.senders; j++ {
		l.senders = append(l.senders, reachable[j*len(reachable)/s.senders])
	}
	return l, nil
}

// send is one scheduled reading: node's, due at at.
type send struct {
	node int
	at   time.Duration
}

// schedule lists the data phase's sends: one reading per sender, sender
// j's due j/senders of the way through the window. One reading per
// sender keeps the base station's replay window from rejecting a
// reading that ARQ delayed behind its origin's next one.
func (s spec) schedule(senders []int, start time.Duration) []send {
	out := make([]send, len(senders))
	for j, n := range senders {
		out[j] = send{node: n, at: start + s.window*time.Duration(j)/time.Duration(len(senders))}
	}
	return out
}

// run performs one iteration of the workload.
func (s spec) run(seed uint64, h hooks) (iteration, error) {
	root, end := h.span(s.name, 0)
	defer end()
	_, endGen := h.span("topology.generate", root)
	l, err := s.layout(seed)
	endGen()
	if err != nil {
		return iteration{}, err
	}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	if s.lab {
		return s.runLab(seed, l, h, root)
	}
	return s.runSim(seed, l, h, root)
}

func (s spec) runSim(seed uint64, l layout, h hooks, root int) (iteration, error) {
	var it iteration
	opt := core.DeployOptions{N: s.n, Density: s.density, Seed: seed, Shards: 1, BSIndex: l.bs}
	if h.reg != nil {
		opt.Obs = h.reg.Scope(s.name, 0)
	}
	if h.capture != nil {
		opt.Trace = func(ev sim.TraceEvent) { h.capture.add(ev.Pkt) }
	}
	runtime.GC()
	t0 := cpuNow()
	_, endDeploy := h.span("core.deploy", root)
	d, err := core.Deploy(opt)
	endDeploy()
	if err != nil {
		return it, err
	}
	// The two horizons of Deployment.RunSetup, run here so the engine's
	// event counts are seen: key setup ends at OperationalAt, where the
	// per-node setup transmissions (Figure 9) are read off the meters,
	// then the operational transition and first beacon flood settle.
	_, endSetup := h.span("core.setup", root)
	events := d.Eng.Run(d.Cfg.OperationalAt - time.Millisecond)
	setupTx := make([]int, s.n)
	for i := range setupTx {
		setupTx[i] = d.Eng.Meter(i).TxCount()
	}
	events += d.Eng.Run(d.Cfg.OperationalAt + time.Second)
	endSetup()
	it.setupHost = cpuNow() - t0
	if err := checkSetup(d.Sensors, d.VerifyClusterInvariants); err != nil {
		return it, err
	}
	it.heapBytes = liveHeap()
	baseTx := d.Energy().TxCount

	sched := s.schedule(l.senders, d.Eng.Now()+10*time.Millisecond)
	runtime.GC()
	t1 := cpuNow()
	_, endData := h.span("core.data", root)
	for _, snd := range sched {
		d.SendReading(snd.node, snd.at, payload(snd.node))
	}
	events += d.Eng.Run(sched[len(sched)-1].at + drainAfterData)
	endData()
	it.dataHost = cpuNow() - t1

	got := d.Deliveries()
	if h.tamper != nil {
		h.tamper(got)
	}
	it.sim, it.lat, err = summarize(sched, got, d.Sensors, setupTx)
	if err != nil {
		return it, err
	}
	it.sim.Events = events
	it.sim.DataTx = d.Energy().TxCount - baseTx
	if h.reg != nil {
		it.counters = h.reg.Snapshot()
	}
	return it, nil
}

// counting wraps a behavior hosted on the Lab to count its callbacks
// (the Lab's event count, which the Lab does not expose) and its setup
// broadcasts (the Lab keeps no energy meters). It also feeds the traced
// run's frame sample, since the Lab has no radio trace hook.
type counting struct {
	node.Behavior
	ctx     *countingCtx
	events  *int
	capture *frameSample
}

// countingCtx is one host's context, counting the broadcasts its sensor
// makes before it turns operational (key setup's HELLO and LINK-ADVERT
// traffic). The Lab hands each host the same context on every callback.
type countingCtx struct {
	node.Context
	sensor  *core.Sensor
	setupTx int
}

func (c *countingCtx) Broadcast(pkt []byte) {
	if c.sensor.Phase() != core.PhaseOperational {
		c.setupTx++
	}
	c.Context.Broadcast(pkt)
}

func (c counting) Start(ctx node.Context) {
	*c.events++
	c.ctx.Context = ctx
	c.Behavior.Start(c.ctx)
}

func (c counting) Timer(ctx node.Context, t node.Tag) {
	*c.events++
	c.ctx.Context = ctx
	c.Behavior.Timer(c.ctx, t)
}

func (c counting) Receive(ctx node.Context, from node.ID, pkt []byte) {
	*c.events++
	if c.capture != nil {
		c.capture.add(pkt)
	}
	c.ctx.Context = ctx
	c.Behavior.Receive(c.ctx, from, pkt)
}

func (s spec) runLab(seed uint64, l layout, h hooks, root int) (iteration, error) {
	var it iteration
	runtime.GC()
	t0 := cpuNow()
	_, endDeploy := h.span("core.deploy", root)
	// Deployment starts from the graph, as core.Deploy's does.
	graph, err := topology.Generate(graphStream(seed), topology.Config{N: s.n, Density: s.density, Metric: geom.Torus})
	if err != nil {
		endDeploy()
		return it, err
	}
	cfg := core.DefaultConfig()
	if h.reg != nil {
		cfg.Obs = h.reg.Scope(s.name, 0)
	}
	auth := core.AuthorityFromSeed(seed, cfg.ChainLength)
	sensors := make([]*core.Sensor, s.n)
	ctxs := make([]countingCtx, s.n)
	behaviors := make([]node.Behavior, s.n)
	events := 0
	for i := range sensors {
		m := auth.MaterialFor(node.ID(i))
		if i == l.bs {
			sensors[i] = core.NewBaseStation(cfg, m, auth)
		} else {
			sensors[i] = core.NewSensor(cfg, m)
		}
		ctxs[i].sensor = sensors[i]
		behaviors[i] = counting{Behavior: sensors[i], ctx: &ctxs[i], events: &events, capture: h.capture}
	}
	// One network-wide burst covers setup and data alike.
	plan := &faults.Plan{Events: []faults.Event{{
		Kind: faults.KindBurst, At: 0, Until: time.Hour,
		PGB: burstPGB, PBG: burstPBG, LossGood: 0, LossBad: burstLossBad,
	}}}
	inj := faults.NewInjector(plan, xrand.New(seed^saltBurst))
	inj.SetMetrics(faults.NewMetrics(h.reg))
	// The transport's own frame counters are the Lab's only traffic
	// accounting, so they are on in the untraced run too.
	reg := h.reg
	if reg == nil {
		reg = obs.NewRegistry()
	}
	tm := transport.NewMetrics(reg)
	lab, err := transport.NewLab(transport.LabConfig{
		Graph:     graph,
		Seed:      seed,
		Transport: transport.Config{ARQ: true},
		Drop:      inj.Drop,
		Metrics:   tm,
	}, behaviors)
	endDeploy()
	if err != nil {
		return it, err
	}
	_, endSetup := h.span("core.setup", root)
	lab.Run(labSettle)
	endSetup()
	it.setupHost = cpuNow() - t0
	if err := checkSetup(sensors, nil); err != nil {
		return it, err
	}
	it.heapBytes = liveHeap()
	frames := int(tm.TxData.Value() + tm.Retransmits.Value() + tm.TxAcks.Value())

	var delivered []core.Delivery
	sensors[l.bs].SetOnDeliver(func(d core.Delivery) { delivered = append(delivered, d) })
	sched := s.schedule(l.senders, labSettle+10*time.Millisecond)
	runtime.GC()
	t1 := cpuNow()
	_, endData := h.span("core.data", root)
	for _, snd := range sched {
		sn, data := sensors[snd.node], payload(snd.node)
		lab.Do(snd.at, snd.node, func(ctx node.Context) {
			events++
			sn.SendReading(ctx, data)
		})
	}
	lab.Run(sched[len(sched)-1].at + 2*drainAfterData)
	endData()
	it.dataHost = cpuNow() - t1

	setupTx := make([]int, s.n)
	for i := range ctxs {
		setupTx[i] = ctxs[i].setupTx
	}
	if h.tamper != nil {
		h.tamper(delivered)
	}
	it.sim, it.lat, err = summarize(sched, delivered, sensors, setupTx)
	if err != nil {
		return it, err
	}
	it.sim.Events = events
	it.sim.DataTx = int(tm.TxData.Value()+tm.Retransmits.Value()+tm.TxAcks.Value()) - frames
	if h.reg != nil {
		it.counters = h.reg.Snapshot()
	}
	return it, nil
}

// checkSetup is the post-setup gate: every node operational and
// clustered, Km erased everywhere (paper §IV-B), and, where a
// deployment can check them, the cluster invariants.
func checkSetup(sensors []*core.Sensor, invariants func() error) error {
	for i, sn := range sensors {
		if sn.Phase() != core.PhaseOperational {
			return fmt.Errorf("setup gate: node %d in phase %v", i, sn.Phase())
		}
		if _, ok := sn.Cluster(); !ok {
			return fmt.Errorf("setup gate: node %d has no cluster", i)
		}
		if !sn.KeyStore().Master.IsZero() {
			return fmt.Errorf("setup gate: node %d still holds Km", i)
		}
	}
	if invariants != nil {
		if err := invariants(); err != nil {
			return fmt.Errorf("setup gate: %w", err)
		}
	}
	return nil
}

// checkDeliveries is the data gate: every delivery is a reading that was
// scheduled, carries exactly the bytes its origin sent, and arrives once.
func checkDeliveries(sched []send, got []core.Delivery) error {
	sent := make(map[int]bool, len(sched))
	for _, snd := range sched {
		sent[snd.node] = true
	}
	seen := make(map[int]bool, len(got))
	for _, d := range got {
		origin := int(d.Origin)
		if !sent[origin] || d.Seq != 1 {
			return fmt.Errorf("data gate: delivery %d/%d was never sent", d.Origin, d.Seq)
		}
		if seen[origin] {
			return fmt.Errorf("data gate: delivery %d/%d accepted twice", d.Origin, d.Seq)
		}
		seen[origin] = true
		if want := payload(origin); !bytes.Equal(d.Data, want) {
			return fmt.Errorf("data gate: delivery %d/%d carries %x, origin sent %x", d.Origin, d.Seq, d.Data, want)
		}
	}
	return nil
}

// summarize gates the data phase and reduces it to simulated-time
// statistics.
func summarize(sched []send, got []core.Delivery, sensors []*core.Sensor, setupTx []int) (simStats, latencies, error) {
	var st simStats
	if err := checkDeliveries(sched, got); err != nil {
		return st, nil, err
	}
	due := make(map[int]time.Duration, len(sched))
	for _, snd := range sched {
		due[snd.node] = snd.at
	}
	lat := make(latencies, 0, len(got))
	for _, d := range got {
		lat = append(lat, d.At-due[int(d.Origin)])
	}
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	st.Offered, st.Delivered = len(sched), len(got)
	st.LatencyP50, st.LatencyP99 = lat.quantile(0.5), lat.quantile(0.99)
	keys := 0
	for _, sn := range sensors {
		keys += sn.ClusterKeyCount()
	}
	st.KeysPerNode = float64(keys) / float64(len(sensors))
	for _, tx := range setupTx {
		st.SetupTxTotal += tx
	}
	return st, lat, nil
}

// quantile returns the q-quantile of sorted latencies (0 when empty).
func (l latencies) quantile(q float64) time.Duration {
	if len(l) == 0 {
		return 0
	}
	return l[int(q*float64(len(l)))]
}

// cpuNow returns the CPU time, user and system, of the calling thread,
// which run pins to the engine's goroutine. The engine runs on that one
// goroutine, so this is the time the workload took less any time spent
// waiting for a CPU: on a 2-CPU machine shared with other tenants, wall
// time for the same deployment moved by a fifth and more between
// repeats, this by a few percent. The collector's background workers run
// on other threads and are not counted; its assists are.
func cpuNow() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_THREAD, &ru); err != nil {
		panic("getrusage: " + err.Error())
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// liveHeap forces a collection and returns the live heap in bytes.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}
