package experiments

import (
	"bytes"
	"os"
	"runtime"
	"testing"
	"time"
)

// TestScaleSweepSmall keeps the family in the ordinary test run:
// structural sanity at a size every machine can afford.
func TestScaleSweepSmall(t *testing.T) {
	res, err := ScaleSweep(Options{Seed: 5, Trials: 2, N: 200}, []int{200, 400}, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 2 {
		t.Fatalf("%d points, want 2", len(res.Points))
	}
	for _, p := range res.Points {
		if p.Clustered < p.N/2 {
			t.Errorf("n=%d: only %d nodes clustered", p.N, p.Clustered)
		}
		if p.Clusters <= 0 || p.Clusters > p.Clustered {
			t.Errorf("n=%d: %d clusters of %d clustered nodes", p.N, p.Clusters, p.Clustered)
		}
		if p.Keys.N() != p.Clustered {
			t.Errorf("n=%d: keys accumulator saw %d nodes, want %d", p.N, p.Keys.N(), p.Clustered)
		}
		if p.Keys.Mean() <= 0 {
			t.Errorf("n=%d: keys/node mean %v", p.N, p.Keys.Mean())
		}
		if p.Events <= 0 {
			t.Errorf("n=%d: %d events", p.N, p.Events)
		}
		sizes := 0
		for _, c := range p.SizeCounts {
			sizes += c
		}
		if sizes != p.Clusters {
			t.Errorf("n=%d: size histogram holds %d clusters, want %d", p.N, sizes, p.Clusters)
		}
	}
	// The locality claim in miniature: per-node storage stays flat in n.
	a, b := res.Points[0].Keys.Mean(), res.Points[1].Keys.Mean()
	if diff := a - b; diff > 1.5 || diff < -1.5 {
		t.Errorf("keys/node not scale-invariant: %.2f at n=200, %.2f at n=400", a, b)
	}
	if res.Table() == "" {
		t.Error("empty table")
	}
}

// TestScaleSmoke is the CI scale gate (set SCALE_SMOKE=1 to run): one
// 100k-node ScaleSweep trial on four shards, plus four-shards-vs-one
// equivalence at 5k nodes. Budget: under three minutes on a CI runner,
// race detector off.
func TestScaleSmoke(t *testing.T) {
	if os.Getenv("SCALE_SMOKE") == "" {
		t.Skip("set SCALE_SMOKE=1 to run the 100k-node smoke test")
	}
	start := time.Now()
	res, err := ScaleSweep(Options{Seed: 1, Trials: 1, Shards: 4}, []int{100_000}, 10)
	if err != nil {
		t.Fatal(err)
	}
	p := res.Points[0]
	t.Logf("100k nodes / 4 shards: %d events in %v (%.0f events/s/core), %d clusters, keys/node %.2f",
		p.Events, p.Wall.Round(time.Millisecond), p.EventsPerSecCore, p.Clusters, p.Keys.Mean())
	if p.Clustered < 99_000 {
		t.Errorf("only %d of 100k nodes clustered", p.Clustered)
	}
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	t.Logf("heap in use after sweep: %.1f MB", float64(mem.HeapInuse)/(1<<20))

	// Equivalence vs one shard at 5k nodes.
	o := Options{Seed: 3, Trials: 1, N: 5000}
	serial := o
	serial.Shards = 1
	sharded := o
	sharded.Shards = 4
	rs, err := ScaleSweep(serial, []int{5000}, 10)
	if err != nil {
		t.Fatal(err)
	}
	rp, err := ScaleSweep(sharded, []int{5000}, 10)
	if err != nil {
		t.Fatal(err)
	}
	js, jp := mustJSON(t, rs), mustJSON(t, rp)
	if !bytes.Equal(js, jp) {
		t.Fatalf("5k-node sharded output differs from serial\nserial:  %s\nsharded: %s", js, jp)
	}
	t.Logf("smoke total: %v", time.Since(start).Round(time.Millisecond))
}
