package core

import "repro/internal/crypt"

// sealerTable holds one AEAD state per distinct key for every sensor that
// shares it. The protocol's keys are shared by construction — every node
// opens setup traffic under the same Km and holds the same few cluster
// keys as its neighbors — so building the subkeys, AES schedule and HMAC
// pads once per table instead of once per node removes most of key
// setup's crypto work. Entries are refcounted by the sensors' handles and
// deleted when the last handle goes, so a key's state lives exactly as
// long as some sharing node still holds the key.
//
// A table has no lock: Deploy shares one only among the sensors of one
// simulator shard, which run on that shard's goroutine or on the
// coordinator lane while every shard is parked. Every other sensor (live,
// Lab, fleet) gets a private one (see sealerCache.get).
type sealerTable struct {
	m map[crypt.Key]sharedSealer
}

// sharedSealer is one table entry: the key's AEAD state and the number
// of sensor handles on it.
type sharedSealer struct {
	sl   *crypt.Sealer
	refs int
}

func newSealerTable() *sealerTable {
	return &sealerTable{m: make(map[crypt.Key]sharedSealer)}
}

// acquire returns key's AEAD state, building it on first use, and counts
// one more handle on it.
func (t *sealerTable) acquire(key crypt.Key) *crypt.Sealer {
	e, ok := t.m[key]
	if !ok {
		e.sl = crypt.NewSealer(key)
	}
	e.refs++
	t.m[key] = e
	return e.sl
}

// release drops one handle on key, deleting the entry with its last one.
func (t *sealerTable) release(key crypt.Key) {
	e := t.m[key]
	if e.refs--; e.refs == 0 {
		delete(t.m, key)
	} else {
		t.m[key] = e
	}
}

// sealerCache is one sensor's view of its table: a handle per key the
// node has sealed or opened under, so steady-state sealing and opening
// allocate nothing. It is purely a cache — dropping a handle only means
// the next use re-acquires it — so releases never change output.
type sealerCache struct {
	handles map[crypt.Key]*crypt.Sealer
	// table holds the state the handles point at: the shard's table,
	// set by Deploy and AddLateNode, or a private one made on first use.
	table *sealerTable
}

// maxCachedSealers bounds a sensor's handle map. The base station holds
// one handle per origin node key, so the bound is sized for the
// multi-thousand-node topologies internal/geom targets; on overflow every
// handle is released (deterministically — no eviction order) and the
// cache rebuilds on demand.
const maxCachedSealers = 4096

// get returns the AEAD state for key, acquiring a handle on first use.
func (c *sealerCache) get(key crypt.Key) *crypt.Sealer {
	if sl, ok := c.handles[key]; ok {
		return sl
	}
	if c.handles == nil {
		c.handles = make(map[crypt.Key]*crypt.Sealer, 8)
		if c.table == nil {
			c.table = newSealerTable()
		}
	} else if len(c.handles) >= maxCachedSealers {
		c.releaseAll()
	}
	sl := c.table.acquire(key)
	c.handles[key] = sl
	return sl
}

// release drops the handle on key, if the node holds one.
func (c *sealerCache) release(key crypt.Key) {
	if _, ok := c.handles[key]; ok {
		delete(c.handles, key)
		c.table.release(key)
	}
}

// releaseAll drops every handle. Refcounts make the map's iteration
// order irrelevant.
func (c *sealerCache) releaseAll() {
	for k := range c.handles {
		c.table.release(k)
	}
	clear(c.handles)
}
