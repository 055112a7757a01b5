package core

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/crypt"
	"repro/internal/node"
)

// heldKeys is every key sensor s may legitimately hold a sealer handle
// on: its node key, any unerased master, its current cluster keys and
// the previous-epoch keys kept for the refresh changeover. The base
// station additionally opens Step-1 envelopes under every origin's node
// key, passed as originKeys.
func heldKeys(s *Sensor, originKeys map[crypt.Key]bool) func(crypt.Key) bool {
	ks := s.KeyStore()
	held := map[crypt.Key]bool{ks.NodeKey: true}
	for _, k := range []crypt.Key{ks.Master, ks.AddMaster} {
		if !k.IsZero() {
			held[k] = true
		}
	}
	if ks.InCluster {
		held[ks.ClusterKey] = true
	}
	for _, cid := range ks.NeighborCIDs() {
		k, _ := ks.KeyFor(cid)
		held[k] = true
	}
	for _, m := range s.meta {
		if m.hasPrev {
			held[m.prev] = true
		}
	}
	return func(k crypt.Key) bool { return held[k] || (s.bs != nil && originKeys[k]) }
}

// checkSealerTables verifies the shared sealer-table bookkeeping of a
// deployment: every sensor uses its shard's table; every handle is that
// table's entry for the key; each table holds exactly the keys its
// sensors have handles on, with refs equal to the number of handles;
// and no sensor keeps a handle on a key it no longer holds.
func checkSealerTables(t *testing.T, d *Deployment) {
	t.Helper()
	originKeys := make(map[crypt.Key]bool, len(d.Sensors))
	for i := range d.Sensors {
		originKeys[d.Auth.NodeKey(node.ID(i))] = true
	}
	refs := make(map[*sealerTable]map[crypt.Key]int, len(d.tables))
	for _, tb := range d.tables {
		refs[tb] = make(map[crypt.Key]int)
	}
	handles := 0
	for i, s := range d.Sensors {
		if s == nil {
			continue
		}
		tb := s.sealers.table
		if tb != d.tables[d.shardOf[i]] {
			t.Fatalf("node %d does not use its shard's sealer table", i)
		}
		holds := heldKeys(s, originKeys)
		for k, sl := range s.sealers.handles {
			if e, ok := tb.m[k]; !ok || e.sl != sl {
				t.Fatalf("node %d: handle on %x is not its table's entry", i, k[:4])
			}
			if !holds(k) {
				t.Errorf("node %d keeps a sealer handle on key %x it no longer holds", i, k[:4])
			}
			refs[tb][k]++
			handles++
		}
	}
	entries, refSum := 0, 0
	for si, tb := range d.tables {
		if len(tb.m) != len(refs[tb]) {
			t.Errorf("shard %d: table has %d keys, its sensors' handles cover %d", si, len(tb.m), len(refs[tb]))
		}
		for k, e := range tb.m {
			if e.refs != refs[tb][k] {
				t.Errorf("shard %d: key %x has refs %d, handles %d", si, k[:4], e.refs, refs[tb][k])
			}
			refSum += e.refs
		}
		entries += len(tb.m)
	}
	if refSum != handles {
		t.Errorf("summed refs %d != handle count %d", refSum, handles)
	}
	t.Logf("%d shard tables: %d entries for %d handles", len(d.tables), entries, handles)
}

// TestSealerTableAccounting: after key setup every shard's table holds
// exactly its sensors' handles, and Km's entry is gone — the last Km
// holder on each shard deleted it when it erased Km.
func TestSealerTableAccounting(t *testing.T) {
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d, err := Deploy(DeployOptions{N: 500, Density: 10, Seed: 5, Shards: shards})
			if err != nil {
				t.Fatal(err)
			}
			if len(d.tables) != shards {
				t.Fatalf("%d sealer tables for %d shards", len(d.tables), shards)
			}
			if err := d.RunSetup(); err != nil {
				t.Fatal(err)
			}
			checkSealerTables(t, d)
			km := d.Auth.MaterialFor(1).Master
			if km.IsZero() {
				t.Fatal("test needs the deployment's Km")
			}
			for si, tb := range d.tables {
				if len(tb.m) == 0 {
					t.Errorf("shard %d: empty table after the beacon flood", si)
				}
				if _, ok := tb.m[km]; ok {
					t.Errorf("shard %d: Km's AEAD state survives key setup", si)
				}
			}
		})
	}
}

// TestRevokedKeysLeaveSealerTables: once the base station revokes two
// clusters and one more refresh epoch passes, no sensor keeps a handle
// on — and no table an entry for — any key those clusters ever had, and
// the keys hash refresh superseded are released as they leave the
// changeover window.
func TestRevokedKeysLeaveSealerTables(t *testing.T) {
	const period = 2 * time.Second
	for _, shards := range []int{1, 3} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			d, err := Deploy(DeployOptions{
				N: 500, Density: 10, Seed: 17, Shards: shards,
				Config: Config{RefreshPeriod: period, RefreshMode: RefreshHash},
			})
			if err != nil {
				t.Fatal(err)
			}
			if err := d.RunSetup(); err != nil {
				t.Fatal(err)
			}
			// Readings either side of the first refresh boundary put
			// current and previous-epoch cluster keys into the handles.
			epoch1 := d.Cfg.OperationalAt + period
			for i := 1; i < len(d.Sensors); i += 25 {
				d.SendReading(i, epoch1-200*time.Millisecond, []byte("before"))
				d.SendReading(i, epoch1+50*time.Millisecond, []byte("after"))
			}
			d.Eng.Run(epoch1 + 500*time.Millisecond)
			checkSealerTables(t, d)

			victims := nonBSClusters(t, d, 2)
			revoked := make(map[crypt.Key]bool)
			for _, s := range d.Sensors {
				for _, cid := range victims {
					if k, ok := s.KeyStore().KeyFor(cid); ok {
						revoked[k] = true
					}
					if k, ok := s.prevKeyOf(cid); ok {
						revoked[k] = true
					}
				}
			}
			before := 0
			for _, s := range d.Sensors {
				for k := range s.sealers.handles {
					if revoked[k] {
						before++
					}
				}
			}
			if before == 0 {
				t.Fatal("no handle on the victims' keys before revocation; the test would prove nothing")
			}

			bs := d.BS()
			revokeAt := d.Eng.Now() + 10*time.Millisecond
			d.Eng.Do(revokeAt, d.BSIndex, func(ctx node.Context) {
				if !bs.RevokeClusters(ctx, victims) {
					t.Error("revocation not issued")
				}
			})
			d.Eng.Run(revokeAt + period + 500*time.Millisecond)

			for i, s := range d.Sensors {
				for k := range s.sealers.handles {
					if revoked[k] {
						t.Errorf("node %d keeps a sealer handle on revoked key %x", i, k[:4])
					}
				}
			}
			for si, tb := range d.tables {
				for k := range tb.m {
					if revoked[k] {
						t.Errorf("shard %d: table keeps revoked key %x", si, k[:4])
					}
				}
			}
			checkSealerTables(t, d)
			t.Logf("%d handles on %d revoked keys released", before, len(revoked))
		})
	}
}

// TestShardedReadingsMatchOneShard runs deploy, key setup and a round of
// readings on four shards — sensors sharing per-shard sealer tables
// while the shards advance on their own goroutines, which the race job
// checks — and requires the one-shard run's deliveries exactly.
func TestShardedReadingsMatchOneShard(t *testing.T) {
	run := func(shards int) (string, *Deployment) {
		d, err := Deploy(DeployOptions{N: 400, Density: 10, Seed: 23, Shards: shards})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.RunSetup(); err != nil {
			t.Fatal(err)
		}
		for i := 1; i < len(d.Sensors); i += 10 {
			d.SendReading(i, d.Eng.Now()+time.Duration(i)*time.Millisecond, []byte(fmt.Sprint("r", i)))
		}
		if _, err := d.Eng.RunUntilIdle(5_000_000); err != nil {
			t.Fatal(err)
		}
		return fmt.Sprint(d.Deliveries()), d
	}
	want, _ := run(1)
	got, d := run(4)
	if got != want {
		t.Fatalf("four-shard deliveries differ from one shard:\n got %s\nwant %s", got, want)
	}
	if n := len(d.Deliveries()); n != 40 {
		t.Fatalf("%d of 40 readings delivered", n)
	}
	checkSealerTables(t, d)
}

// TestPrivateSealerTable: a sensor built outside Deploy makes its own
// table on first use, shares one entry per key between repeated uses,
// and empties the table when its handles go.
func TestPrivateSealerTable(t *testing.T) {
	s := NewSensor(Config{}, Material{ID: 1})
	if s.sealers.table != nil {
		t.Fatal("table made before first use")
	}
	k1, k2 := crypt.Key{1}, crypt.Key{2}
	if s.sealers.get(k1) != s.sealers.get(k1) {
		t.Fatal("second use of a key built new state")
	}
	s.sealers.get(k2)
	tb := s.sealers.table
	if len(tb.m) != 2 || tb.m[k1].refs != 1 || tb.m[k2].refs != 1 {
		t.Fatalf("private table after two keys: %+v", tb.m)
	}
	s.sealers.release(k1)
	if _, ok := tb.m[k1]; ok || len(tb.m) != 1 {
		t.Fatal("released key kept its entry")
	}
	s.sealers.releaseAll()
	if len(tb.m) != 0 || len(s.sealers.handles) != 0 {
		t.Fatalf("releaseAll left %d entries, %d handles", len(tb.m), len(s.sealers.handles))
	}
}
