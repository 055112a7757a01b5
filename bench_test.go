package repro_test

// This file is the paper's benchmark harness: one benchmark per figure of
// the evaluation section (Figures 1, 6, 7, 8, 9), one per Section V claim
// (scale invariance, setup duration), and one per security-analysis
// comparison (node-capture resilience, broadcast cost, LEAP HELLO flood,
// selective forwarding). Each benchmark runs the corresponding experiment
// end-to-end on the simulator and reports the headline quantity through
// b.ReportMetric, so `go test -bench=. -benchmem` regenerates the paper's
// numbers. Benchmarks run at a reduced-but-faithful scale (n=800-1000,
// one trial per iteration); cmd/figures runs the same experiments at full
// paper scale (n=2500-3600, five trials).

import (
	"runtime"
	"testing"
	"time"

	"repro/internal/crypt"
	"repro/internal/experiments"
	"repro/internal/transport"
	"repro/internal/xrand"
)

// benchOpts returns the benchmark-scale experiment options, varied per
// iteration so repeated iterations measure fresh deployments.
func benchOpts(i int) experiments.Options {
	return experiments.Options{Seed: uint64(i) + 1, Trials: 1, N: 800}
}

// BenchmarkFigure1ClusterSizeDistribution regenerates Figure 1: the
// distribution of nodes to clusters at densities 8 and 20. Reported
// metric: fraction of singleton clusters at each density.
func BenchmarkFigure1ClusterSizeDistribution(b *testing.B) {
	var s8, s20 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.Figure1(benchOpts(i), 8, 20)
		if err != nil {
			b.Fatal(err)
		}
		s8 += res.Fractions[8][1]
		s20 += res.Fractions[20][1]
	}
	b.ReportMetric(s8/float64(b.N), "singleton-frac-d8")
	b.ReportMetric(s20/float64(b.N), "singleton-frac-d20")
}

// BenchmarkFigure6KeysPerNode regenerates Figure 6: average cluster keys
// per node as a function of density. Reported metrics: the endpoints of
// the curve (density 8 and 20).
func BenchmarkFigure6KeysPerNode(b *testing.B) {
	var k8, k20 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.DensitySweep(benchOpts(i), []float64{8, 20})
		if err != nil {
			b.Fatal(err)
		}
		v8, _ := res.KeysPerNode.At(8)
		v20, _ := res.KeysPerNode.At(20)
		k8 += v8
		k20 += v20
	}
	b.ReportMetric(k8/float64(b.N), "keys/node-d8")
	b.ReportMetric(k20/float64(b.N), "keys/node-d20")
}

// BenchmarkFigure7ClusterSize regenerates Figure 7: average nodes per
// cluster vs density.
func BenchmarkFigure7ClusterSize(b *testing.B) {
	var c8, c20 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.DensitySweep(benchOpts(i), []float64{8, 20})
		if err != nil {
			b.Fatal(err)
		}
		v8, _ := res.NodesPerCluster.At(8)
		v20, _ := res.NodesPerCluster.At(20)
		c8 += v8
		c20 += v20
	}
	b.ReportMetric(c8/float64(b.N), "nodes/cluster-d8")
	b.ReportMetric(c20/float64(b.N), "nodes/cluster-d20")
}

// BenchmarkFigure8ClusterheadFraction regenerates Figure 8: clusterheads
// as a fraction of network size vs density.
func BenchmarkFigure8ClusterheadFraction(b *testing.B) {
	var h8, h20 float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.DensitySweep(benchOpts(i), []float64{8, 20})
		if err != nil {
			b.Fatal(err)
		}
		v8, _ := res.HeadFraction.At(8)
		v20, _ := res.HeadFraction.At(20)
		h8 += v8
		h20 += v20
	}
	b.ReportMetric(h8/float64(b.N), "heads/n-d8")
	b.ReportMetric(h20/float64(b.N), "heads/n-d20")
}

// BenchmarkFigure9SetupMessages regenerates Figure 9: transmissions per
// node during the key-setup phase (paper: 1.22 at density 8 down to 1.06
// at density 20, for 2000 nodes).
func BenchmarkFigure9SetupMessages(b *testing.B) {
	var m8, m20 float64
	for i := 0; i < b.N; i++ {
		o := benchOpts(i)
		o.N = 1000
		res, err := experiments.DensitySweep(o, []float64{8, 20})
		if err != nil {
			b.Fatal(err)
		}
		v8, _ := res.MsgsPerNode.At(8)
		v20, _ := res.MsgsPerNode.At(20)
		m8 += v8
		m20 += v20
	}
	b.ReportMetric(m8/float64(b.N), "msgs/node-d8")
	b.ReportMetric(m20/float64(b.N), "msgs/node-d20")
}

// BenchmarkScaleInvariance regenerates the Section V claim that the
// keys-per-node curve is independent of network size ("our protocol
// behaves the same way in a network with 2000 or 20000 nodes"). Reported
// metric: the maximum deviation between the curves at different sizes.
func BenchmarkScaleInvariance(b *testing.B) {
	var maxDiff float64
	for i := 0; i < b.N; i++ {
		o := experiments.Options{Seed: uint64(i) + 1, Trials: 1}
		res, err := experiments.ScaleInvariance(o, []int{500, 2000}, []float64{8, 12.5, 20})
		if err != nil {
			b.Fatal(err)
		}
		maxDiff += res.MaxDiff
	}
	b.ReportMetric(maxDiff/float64(b.N), "max-curve-diff-keys")
}

// BenchmarkResilienceNodeCapture regenerates the Sections II/III capture
// comparison: fraction of links between uncaptured nodes readable after
// capturing 25 random nodes, per scheme, plus the locality probe (links
// at least 4 hops from every capture — provably zero for the paper's
// protocol).
func BenchmarkResilienceNodeCapture(b *testing.B) {
	series := map[string]float64{}
	for i := 0; i < b.N; i++ {
		res, err := experiments.Resilience(benchOpts(i), []int{25})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Full {
			if v, ok := s.At(25); ok {
				series[s.Name] += v
			}
		}
		for _, s := range res.Remote {
			if v, ok := s.At(25); ok {
				series[s.Name] += v
			}
		}
	}
	for name, sum := range series {
		b.ReportMetric(sum/float64(b.N), "frac-"+name)
	}
}

// BenchmarkBroadcastCost regenerates the Section II energy argument:
// transmissions needed to broadcast one encrypted message to all
// neighbors, per scheme (ours: exactly 1; random predistribution: about
// one per neighbor).
func BenchmarkBroadcastCost(b *testing.B) {
	var ours, rk float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.BroadcastCost(benchOpts(i), []float64{12.5})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Series {
			v, _ := s.At(12.5)
			switch s.Name {
			case "localized":
				ours += v
			case "random-kp":
				rk += v
			}
		}
	}
	b.ReportMetric(ours/float64(b.N), "tx/broadcast-localized")
	b.ReportMetric(rk/float64(b.N), "tx/broadcast-random-kp")
}

// BenchmarkLEAPHelloFlood regenerates the Section III LEAP attack: keys a
// flooded LEAP victim is forced to store (vs the flood-immune localized
// protocol).
func BenchmarkLEAPHelloFlood(b *testing.B) {
	var leapKeys, localizedKeys float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.HelloFlood(benchOpts(i), []int{1000})
		if err != nil {
			b.Fatal(err)
		}
		v, _ := res.VictimKeys.At(1000)
		leapKeys += v
		localizedKeys += float64(res.LocalizedKeys)
	}
	b.ReportMetric(leapKeys/float64(b.N), "leap-victim-keys")
	b.ReportMetric(localizedKeys/float64(b.N), "localized-keys")
}

// BenchmarkSelectiveForwarding regenerates the Section VI claim that
// selective forwarding is insignificant under cluster-key redundancy:
// delivery ratio with 20% of nodes silently dropping relayed traffic.
func BenchmarkSelectiveForwarding(b *testing.B) {
	var ratio float64
	for i := 0; i < b.N; i++ {
		o := experiments.Options{Seed: uint64(i) + 1, Trials: 1, N: 400}
		res, err := experiments.SelectiveForwarding(o, []float64{0.2})
		if err != nil {
			b.Fatal(err)
		}
		v, _ := res.DeliveryRatio.At(0.2)
		ratio += v
	}
	b.ReportMetric(ratio/float64(b.N), "delivery-ratio-20pct-droppers")
}

// BenchmarkStorageScaling regenerates the Section II scalability claim:
// per-node key storage as the network grows, per scheme. Reported
// metrics: keys-per-node of the localized protocol and of the pairwise
// strawman at n=1200 (the former flat, the latter n-1).
func BenchmarkStorageScaling(b *testing.B) {
	var ours, pw float64
	for i := 0; i < b.N; i++ {
		o := experiments.Options{Seed: uint64(i) + 1, Trials: 1}
		res, err := experiments.Storage(o, []int{400, 1200}, 12.5)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Curves {
			v, _ := s.At(1200)
			switch s.Name {
			case "localized":
				ours += v
			case "pairwise-unique":
				pw += v
			}
		}
	}
	b.ReportMetric(ours/float64(b.N), "keys-localized-n1200")
	b.ReportMetric(pw/float64(b.N), "keys-pairwise-n1200")
}

// BenchmarkAblationElectionDelay reports the calibration knob's effect:
// singleton-cluster fraction at short (5ms) vs long (100ms) mean HELLO
// delays, density 8.
func BenchmarkAblationElectionDelay(b *testing.B) {
	var s5, s100 float64
	for i := 0; i < b.N; i++ {
		o := experiments.Options{Seed: uint64(i) + 1, Trials: 1, N: 600}
		res, err := experiments.ElectionDelay(o, []int{5, 100}, 8)
		if err != nil {
			b.Fatal(err)
		}
		v5, _ := res.SingletonFrac.At(5)
		v100, _ := res.SingletonFrac.At(100)
		s5 += v5
		s100 += v100
	}
	b.ReportMetric(s5/float64(b.N), "singleton-frac-5ms")
	b.ReportMetric(s100/float64(b.N), "singleton-frac-100ms")
}

// BenchmarkAblationRouting reports the gradient rule's savings over
// naive flooding: DATA transmissions per delivered reading.
func BenchmarkAblationRouting(b *testing.B) {
	var grad, flood float64
	for i := 0; i < b.N; i++ {
		o := experiments.Options{Seed: uint64(i) + 1, Trials: 1, N: 500}
		res, err := experiments.RoutingAblation(o)
		if err != nil {
			b.Fatal(err)
		}
		grad += res.TxPerReadingGradient
		flood += res.TxPerReadingFlood
	}
	b.ReportMetric(grad/float64(b.N), "tx/reading-gradient")
	b.ReportMetric(flood/float64(b.N), "tx/reading-flooding")
}

// BenchmarkAblationMAC reports delivery under the three media: the
// collision-free default, the no-backoff broadcast storm, and the
// CSMA-like backoff.
func BenchmarkAblationMAC(b *testing.B) {
	var free, storm, backoff float64
	for i := 0; i < b.N; i++ {
		o := experiments.Options{Seed: uint64(i) + 1, Trials: 1, N: 500}
		res, err := experiments.MACAblation(o)
		if err != nil {
			b.Fatal(err)
		}
		free += res.Row("collision-free").Delivery
		storm += res.Row("no-backoff").Delivery
		backoff += res.Row("csma-backoff").Delivery
	}
	b.ReportMetric(free/float64(b.N), "delivery-collision-free")
	b.ReportMetric(storm/float64(b.N), "delivery-no-backoff")
	b.ReportMetric(backoff/float64(b.N), "delivery-csma-backoff")
}

// BenchmarkEmpiricalSetupCost runs BOTH protocols' key establishment as
// executable behaviors on identical simulated radios (density 12.5) and
// reports measured transmissions per node — the empirical version of the
// Section III bootstrap comparison.
func BenchmarkEmpiricalSetupCost(b *testing.B) {
	var ours, lp float64
	for i := 0; i < b.N; i++ {
		o := experiments.Options{Seed: uint64(i) + 1, Trials: 1, N: 500}
		res, err := experiments.SetupCost(o, []float64{12.5})
		if err != nil {
			b.Fatal(err)
		}
		v1, _ := res.Localized.At(12.5)
		v2, _ := res.LEAP.At(12.5)
		ours += v1
		lp += v2
	}
	b.ReportMetric(ours/float64(b.N), "setup-msgs/node-localized")
	b.ReportMetric(lp/float64(b.N), "setup-msgs/node-leap")
}

// BenchmarkLifetime reports the finite-battery degradation run: rounds
// survived before the first battery death and the fraction of nodes dead
// after 12 network-wide reporting rounds on a 2J budget.
func BenchmarkLifetime(b *testing.B) {
	var firstDeathRounds, dead float64
	for i := 0; i < b.N; i++ {
		o := experiments.Options{Seed: uint64(i) + 1, Trials: 1, N: 300}
		res, err := experiments.Lifetime(o, 2e6, 12, false)
		if err != nil {
			b.Fatal(err)
		}
		firstDeathRounds += float64(res.RoundsToFirstDeath)
		dead += res.DeadAtEnd
	}
	b.ReportMetric(firstDeathRounds/float64(b.N), "rounds-to-first-death")
	b.ReportMetric(dead/float64(b.N), "dead-frac-at-end")
}

// BenchmarkSetupDuration regenerates the Section IV-B/V setup-window
// argument: the master key Km lives for a fixed, short window, during
// which each node transmits barely more than one message.
func BenchmarkSetupDuration(b *testing.B) {
	var window, msgs float64
	for i := 0; i < b.N; i++ {
		res, err := experiments.SetupTime(benchOpts(i), []float64{12.5})
		if err != nil {
			b.Fatal(err)
		}
		window += res.KeySetupWindow.Seconds()
		msgs += res.MeanMsgsPerNode
	}
	b.ReportMetric(window/float64(b.N), "km-window-sec")
	b.ReportMetric(msgs/float64(b.N), "setup-msgs/node")
}

// benchSweepWorkers is the serial/parallel pair's shared body: a
// multi-point, multi-trial density sweep (3 densities x 4 trials) with
// the worker pool pinned as given.
func benchSweepWorkers(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		o := experiments.Options{Seed: uint64(i) + 1, Trials: 4, N: 500, Workers: workers}
		if _, err := experiments.DensitySweep(o, []float64{8, 12.5, 20}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDensitySweepSerial runs the figure sweep with the -workers=1
// escape hatch: every trial on the calling goroutine, exactly the old
// code path.
func BenchmarkDensitySweepSerial(b *testing.B) { benchSweepWorkers(b, 1) }

// BenchmarkDensitySweepParallel runs the identical sweep with one worker
// per CPU. Output is bit-identical to the serial variant (the experiments
// package's equivalence tests prove it); at GOMAXPROCS > 1 wall-clock
// drops by roughly the core count, since trials are embarrassingly
// parallel and the merge is negligible.
func BenchmarkDensitySweepParallel(b *testing.B) { benchSweepWorkers(b, 0) }

// benchResilienceWorkers is the trial-level fan-out pair: the capture
// sweep parallelizes across whole trials rather than (point, trial)
// cells.
func benchResilienceWorkers(b *testing.B, workers int) {
	for i := 0; i < b.N; i++ {
		o := experiments.Options{Seed: uint64(i) + 1, Trials: 4, N: 500, Workers: workers}
		if _, err := experiments.Resilience(o, []int{10, 50}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkResilienceSerial / BenchmarkResilienceParallel compare the
// security sweep's wall-clock at workers=1 vs one worker per CPU.
func BenchmarkResilienceSerial(b *testing.B)   { benchResilienceWorkers(b, 1) }
func BenchmarkResilienceParallel(b *testing.B) { benchResilienceWorkers(b, 0) }

// benchScaleSweepShards runs one ScaleSweep trial at n=5000 on the given
// intra-trial shard count and reports the engine's throughput. The
// events/s/core figure is the gated number (benchdiff): it is the
// per-core event rate of the sharded scheduler itself — epoch windows,
// cross-shard mailboxes, deterministic merge — so a regression here is
// a regression in every large-deployment run.
func benchScaleSweepShards(b *testing.B, shards int) {
	var evsPerCore, events float64
	for i := 0; i < b.N; i++ {
		o := experiments.Options{Seed: uint64(i) + 1, Trials: 1, Shards: shards}
		res, err := experiments.ScaleSweep(o, []int{5000}, 10)
		if err != nil {
			b.Fatal(err)
		}
		p := res.Points[0]
		evsPerCore += p.EventsPerSecCore
		events += float64(p.Events)
	}
	b.ReportMetric(evsPerCore/float64(b.N), "events/s/core")
	b.ReportMetric(events/float64(b.N), "events")
}

// BenchmarkScaleSweepShard1 pins the engine at one shard (no
// cross-shard traffic): the baseline event rate.
func BenchmarkScaleSweepShard1(b *testing.B) { benchScaleSweepShards(b, 1) }

// BenchmarkScaleSweepSharded runs the same deployment on one shard per
// CPU. Output is byte-identical to the single-shard run (the experiments
// package's shard-equivalence tests prove it); the per-core rate shows
// the synchronization overhead the epoch barrier costs at this scale.
func BenchmarkScaleSweepSharded(b *testing.B) { benchScaleSweepShards(b, runtime.GOMAXPROCS(0)) }

// BenchmarkSoakThroughput wall-clocks the sustained data-plane rate:
// how many encrypted readings per second of real time the base station
// absorbs under the soak family's CBR workload. Preparation (topology,
// key setup, schedule) runs off the clock; only the injection window
// plus drain — the region batching accelerates — is timed. The
// readings/s metric is the gated number (benchdiff): Batch8 is expected
// to hold at least twice the BatchOff rate, since batched sealing
// collapses per-reading seals, relays, and echo acks into one outer
// frame per batch (docs/THROUGHPUT.md).
func BenchmarkSoakThroughput(b *testing.B) {
	// The bench load is denser than the family default: at 5ms per
	// sender the converging flows actually fill batches, and the longer
	// flush delay trades per-reading latency for full batches — the
	// throughput-oriented operating point THROUGHPUT.md describes.
	load := experiments.SoakLoad{
		Period:     5 * time.Millisecond,
		Window:     2 * time.Second,
		FlushDelay: 250 * time.Millisecond,
	}
	soak := func(batch int) func(b *testing.B) {
		return func(b *testing.B) {
			var delivered, secs float64
			for i := 0; i < b.N; i++ {
				o := experiments.Options{Seed: uint64(i) + 1, Trials: 1, N: 300}
				b.StopTimer()
				run, err := experiments.PrepareSoakLoad(o, "cbr", batch, 0, i, load)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				start := time.Now()
				st := run.Run()
				secs += time.Since(start).Seconds()
				if st.Delivered == 0 {
					b.Fatal("soak delivered nothing; the workload is dead")
				}
				delivered += float64(st.Delivered)
			}
			b.ReportMetric(delivered/secs, "readings/s")
		}
	}
	b.Run("BatchOff", soak(0))
	b.Run("Batch8", soak(8))
}

// BenchmarkTransportRoundTrip measures the reliable transport's hot
// path end to end: seal a reading-sized payload, frame and send it
// through an ARQ endpoint, receive and acknowledge it on the peer, and
// process the ack back at the sender. The allocs/op figure is the gated
// number (benchdiff): the endpoints' scratch reuse keeps the steady
// state at a handful of allocations per round trip, and a regression
// here is a regression in every framed live run.
func BenchmarkTransportRoundTrip(b *testing.B) {
	sealer := crypt.NewSealer(crypt.Key{1, 2, 3})
	plaintext := []byte("sensor reading payload")
	aad := []byte{0xE2, 0, 0, 0, 7}

	var a, z *transport.Endpoint
	cfg := transport.Config{ARQ: true}
	a = transport.NewEndpoint(cfg, 0, xrand.New(1),
		func(to int, frame []byte) { z.HandleRaw(frame, 0) },
		func(int, []byte) {})
	z = transport.NewEndpoint(cfg, 1, xrand.New(2),
		func(to int, frame []byte) { a.HandleRaw(frame, 0) },
		func(int, []byte) {})

	var sealed []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sealed = sealer.AppendSeal(sealed[:0], uint64(i)+1, aad, plaintext)
		a.Send(1, sealed, 0)
	}
	if a.InFlight() != 0 {
		b.Fatalf("%d frames unacked after synchronous round trips", a.InFlight())
	}
}
