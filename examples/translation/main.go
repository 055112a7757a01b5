// Translation: the paper's Figure 2 walk-through. Three spatial groups of
// sensors cluster separately; a reading originated in the far cluster is
// re-encrypted ("translated") by border nodes as it crosses cluster
// boundaries toward the base station — each hop under the forwarder's own
// cluster key, each broadcast heard and authenticated by every neighbor.
//
// The example traces every DATA transmission and prints the chain of
// cluster IDs the reading traveled under, making the hop-by-hop
// re-encryption visible.
//
//	go run ./examples/translation
package main

import (
	"fmt"
	"log"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/node"
	"repro/internal/sim"
	"repro/internal/topology"
	"repro/internal/wire"
	"repro/internal/xrand"
)

func main() {
	// Three blobs of nodes along a line, pairwise bridged only at their
	// edges — mirroring the paper's Figure 2 layout: the base station's
	// cluster, a middle cluster, and the source's cluster.
	var pos []geom.Point
	rng := xrand.New(5)
	blob := func(cx, cy float64, count int) {
		for i := 0; i < count; i++ {
			pos = append(pos, geom.Point{
				X: cx + (rng.Float64()-0.5)*1.6,
				Y: cy + (rng.Float64()-0.5)*1.6,
			})
		}
	}
	blob(1.2, 2, 8) // group A: node 0 (the base station) lives here
	blob(3.0, 2, 8) // group B: the middle cluster(s)
	blob(4.8, 2, 8) // group C: the source's cluster
	graph := topology.FromPositions(pos, 6.5, 1.3, geom.Planar)

	cfg := core.DefaultConfig()
	auth := core.AuthorityFromSeed(5, cfg.ChainLength)
	sensors := make([]*core.Sensor, len(pos))
	behaviors := make([]node.Behavior, len(pos))
	for i := range pos {
		m := auth.MaterialFor(node.ID(i))
		if i == 0 {
			sensors[i] = core.NewBaseStation(cfg, m, auth)
		} else {
			sensors[i] = core.NewSensor(cfg, m)
		}
		behaviors[i] = sensors[i]
	}

	// Trace every DATA transmission: the outer frame's CID is the key the
	// forwarder sealed under.
	type hop struct {
		from node.ID
		cid  uint32
	}
	var path []hop
	eng, err := sim.New(sim.Config{
		Graph: graph,
		Seed:  5,
		Trace: func(ev sim.TraceEvent) {
			// One event per receiver; the first stands for the broadcast.
			if !ev.First || len(ev.Pkt) == 0 || wire.Type(ev.Pkt[0]) != wire.TData {
				return
			}
			f, err := wire.ParseFrame(ev.Pkt)
			if err != nil {
				return
			}
			path = append(path, hop{from: ev.From, cid: f.CID})
		},
	}, behaviors)
	if err != nil {
		log.Fatal(err)
	}
	eng.Boot(0)
	eng.Run(cfg.OperationalAt + time.Second)

	fmt.Println("clusters after setup:")
	clusters := map[uint32][]int{}
	for i, s := range sensors {
		if cid, ok := s.Cluster(); ok {
			clusters[cid] = append(clusters[cid], i)
		}
	}
	for cid, members := range clusters {
		fmt.Printf("  cluster %2d: nodes %v\n", cid, members)
	}
	bsCID, _ := sensors[0].Cluster()
	fmt.Printf("base station (node 0) is in cluster %d\n\n", bsCID)

	// Source: the node farthest (in hops) from the base station.
	hops := graph.HopCounts(0)
	src, best := -1, -1
	for i, h := range hops {
		if h > best {
			src, best = i, h
		}
	}
	srcCID, _ := sensors[src].Cluster()
	fmt.Printf("originating a reading at node %d (cluster %d, %d hops from the base station)\n",
		src, srcCID, best)

	delivered := false
	sensors[0].SetOnDeliver(func(d core.Delivery) {
		delivered = true
		fmt.Printf("\nbase station decrypted %q from node %d\n", d.Data, d.Origin)
	})
	eng.Do(eng.Now()+10*time.Millisecond, src, func(ctx node.Context) {
		sensors[src].SendReading(ctx, []byte("event in the far cluster"))
	})
	if _, err := eng.RunUntilIdle(0); err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nhop-by-hop translation (forwarder -> cluster key used):")
	for i, h := range path {
		marker := ""
		if i > 0 && path[i-1].cid != h.cid {
			marker = "   <- translated into a new cluster's key"
		}
		fmt.Printf("  node %2d sealed under cluster %2d%s\n", h.from, h.cid, marker)
	}
	if !delivered {
		log.Fatal("reading did not reach the base station")
	}
	distinct := map[uint32]bool{}
	for _, h := range path {
		distinct[h.cid] = true
	}
	fmt.Printf("\nthe reading crossed %d distinct cluster keys on its way — the paper's\n", len(distinct))
	fmt.Println(`"nodes that lie at the edge of clusters ... translate messages that come`)
	fmt.Println(`from neighboring clusters" (Section IV-C), live.`)
}
