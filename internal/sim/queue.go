package sim

import "time"

// eventQueue is a 4-ary min-heap of events ordered by the canonical
// (at, src, seq) key. The coordinator lane and every shard use one. The
// key is a total order — seq is unique within a lane and src names the
// lane — so the pop sequence is a function of the pushed set alone, not
// of the heap's shape or arity.
//
// Each slot carries a copy of its event's key, so sifting compares
// slots in place without dereferencing events; a node has four children,
// which halves the tree depth of a binary heap and keeps a sift-down's
// sibling comparisons within one or two cache lines.
type eventQueue []qslot

// qslot is one heap slot: the event and a copy of its order key, which
// never changes while the event is queued.
type qslot struct {
	at  time.Duration
	seq uint64
	src int32
	ev  *event
}

// before reports whether a orders strictly before b.
func (a *qslot) before(b *qslot) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.src != b.src {
		return a.src < b.src
	}
	return a.seq < b.seq
}

// push queues ev under its current (at, src, seq) key.
func (q *eventQueue) push(ev *event) {
	x := qslot{at: ev.at, seq: ev.seq, src: ev.src, ev: ev}
	h := append(*q, x)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 4
		if !x.before(&h[p]) {
			break
		}
		h[i] = h[p]
		i = p
	}
	h[i] = x
	*q = h
}

// pop removes and returns the earliest event. The queue must not be
// empty.
func (q *eventQueue) pop() *event {
	h := *q
	top := h[0].ev
	n := len(h) - 1
	x := h[n]
	h[n] = qslot{} // drop the event reference from the dead slot
	h = h[:n]
	if n > 0 {
		i := 0
		for {
			c := 4*i + 1
			if c >= n {
				break
			}
			m := c
			for j, end := c+1, min(c+4, n); j < end; j++ {
				if h[j].before(&h[m]) {
					m = j
				}
			}
			if !h[m].before(&x) {
				break
			}
			h[i] = h[m]
			i = m
		}
		h[i] = x
	}
	*q = h
	return top
}
