package sim

import (
	"cmp"
	"slices"
	"testing"
	"time"

	"repro/internal/xrand"
)

// cmpKey orders events by the canonical (at, src, seq) key.
func cmpKey(a, b *event) int {
	if c := cmp.Compare(a.at, b.at); c != 0 {
		return c
	}
	if c := cmp.Compare(a.src, b.src); c != 0 {
		return c
	}
	return cmp.Compare(a.seq, b.seq)
}

// TestEventQueueOrder interleaves 10^4 pushes and pops whose keys
// collide heavily — eight timestamps, four lanes — and checks every pop
// against a sorted reference: the queue must always yield the minimum
// (at, src, seq) of what it holds, ties broken by lane and then by
// sequence exactly as the canonical order says.
func TestEventQueueOrder(t *testing.T) {
	for _, seed := range []uint64{1, 2, 3} {
		rng := xrand.New(seed)
		var q eventQueue
		var ref []*event // sorted ascending by key
		var lseq [4]uint64
		pops := 0
		for op := 0; op < 10_000; op++ {
			if len(ref) == 0 || rng.Float64() < 0.55 {
				src := rng.Intn(len(lseq))
				lseq[src]++
				ev := &event{
					at:  time.Duration(rng.Intn(8)) * time.Millisecond,
					src: int32(src),
					seq: lseq[src],
				}
				q.push(ev)
				i, _ := slices.BinarySearchFunc(ref, ev, cmpKey)
				ref = slices.Insert(ref, i, ev)
			} else {
				got := q.pop()
				if got != ref[0] {
					t.Fatalf("seed %d op %d: popped (at=%v src=%d seq=%d), want (at=%v src=%d seq=%d)",
						seed, op, got.at, got.src, got.seq, ref[0].at, ref[0].src, ref[0].seq)
				}
				ref = ref[1:]
				pops++
			}
			if len(q) != len(ref) {
				t.Fatalf("seed %d op %d: queue holds %d, want %d", seed, op, len(q), len(ref))
			}
		}
		for len(ref) > 0 {
			if got := q.pop(); got != ref[0] {
				t.Fatalf("seed %d drain: popped seq %d, want %d", seed, got.seq, ref[0].seq)
			}
			ref = ref[1:]
		}
		if pops < 3000 {
			t.Fatalf("seed %d: only %d interleaved pops", seed, pops)
		}
	}
}

// TestEventQueueAllocFree: once its backing array has grown, a push and
// a pop allocate nothing.
func TestEventQueueAllocFree(t *testing.T) {
	evs := make([]event, 64)
	var q eventQueue
	for i := range evs {
		evs[i] = event{at: time.Duration(i % 5), src: int32(i % 3), seq: uint64(i)}
		q.push(&evs[i])
	}
	n := testing.AllocsPerRun(1000, func() {
		ev := q.pop()
		ev.at += 5
		q.push(ev)
	})
	if n != 0 {
		t.Fatalf("push+pop allocates %v/op; want 0", n)
	}
}
