// Package trace provides structured radio-traffic accounting for
// simulated runs: per-message-type transmission/delivery/byte counts,
// optionally bucketed into named protocol phases. It answers the
// questions the paper's cost analysis asks — how many HELLOs, how many
// LINK-ADVERTs, how much of the lifetime traffic is setup versus data —
// with one hook plugged into the simulator.
package trace

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/sim"
	"repro/internal/wire"
)

// Counts aggregates traffic for one message type within one phase.
type Counts struct {
	// Transmissions is the number of radio broadcasts.
	Transmissions int
	// Deliveries is the number of successful receptions (one broadcast
	// reaches many neighbors).
	Deliveries int
	// Lost is the number of receptions dropped by the loss model.
	Lost int
	// Bytes is the total transmitted payload volume (per transmission).
	Bytes int64
}

// Recorder classifies every radio delivery by wire message type and
// phase. It is safe for concurrent use (the live runtime delivers from
// many goroutines); under the simulator the mutex is uncontended.
type Recorder struct {
	mu     sync.Mutex
	phases []phase
}

type phase struct {
	name  string
	until time.Duration // exclusive upper bound; last phase is +Inf
	byTyp map[wire.Type]*Counts
}

// New returns a recorder with a single unnamed phase covering all time.
func New() *Recorder {
	r := &Recorder{}
	r.phases = []phase{{name: "all", until: 1 << 62, byTyp: map[wire.Type]*Counts{}}}
	return r
}

// NewPhased returns a recorder whose buckets are split at the given
// boundaries: phase i covers [boundary(i-1), boundary(i)), and a final
// phase covers everything after the last boundary. names must have
// len(boundaries)+1 entries.
func NewPhased(names []string, boundaries []time.Duration) (*Recorder, error) {
	if len(names) != len(boundaries)+1 {
		return nil, fmt.Errorf("trace: %d names for %d boundaries", len(names), len(boundaries))
	}
	for i := 1; i < len(boundaries); i++ {
		if boundaries[i] <= boundaries[i-1] {
			return nil, fmt.Errorf("trace: boundaries not increasing at %d", i)
		}
	}
	r := &Recorder{}
	for i, name := range names {
		until := time.Duration(1 << 62)
		if i < len(boundaries) {
			until = boundaries[i]
		}
		r.phases = append(r.phases, phase{name: name, until: until, byTyp: map[wire.Type]*Counts{}})
	}
	return r, nil
}

// Hook returns the callback to install as sim.Config.Trace.
func (r *Recorder) Hook() func(sim.TraceEvent) {
	return func(ev sim.TraceEvent) { r.record(ev) }
}

func (r *Recorder) record(ev sim.TraceEvent) {
	typ := wire.Type(0)
	if len(ev.Pkt) > 0 {
		typ = wire.Type(ev.Pkt[0])
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	ph := r.phaseAt(ev.At)
	c, ok := ph.byTyp[typ]
	if !ok {
		c = &Counts{}
		ph.byTyp[typ] = c
	}
	// One broadcast shows up as one event per receiver; the simulator
	// marks the first, so the transmission counts once.
	if ev.First {
		c.Transmissions++
		c.Bytes += int64(ev.Size)
	}
	if ev.Lost {
		c.Lost++
	} else {
		c.Deliveries++
	}
}

func (r *Recorder) phaseAt(at time.Duration) *phase {
	for i := range r.phases {
		if at < r.phases[i].until {
			return &r.phases[i]
		}
	}
	return &r.phases[len(r.phases)-1]
}

// Phase returns the accumulated counts of the named phase by message
// type. The returned map is a copy.
func (r *Recorder) Phase(name string) map[wire.Type]Counts {
	r.mu.Lock()
	defer r.mu.Unlock()
	for i := range r.phases {
		if r.phases[i].name == name {
			out := make(map[wire.Type]Counts, len(r.phases[i].byTyp))
			for t, c := range r.phases[i].byTyp {
				out[t] = *c
			}
			return out
		}
	}
	return nil
}

// Total returns the summed counts across all phases by message type.
func (r *Recorder) Total() map[wire.Type]Counts {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make(map[wire.Type]Counts)
	for i := range r.phases {
		for t, c := range r.phases[i].byTyp {
			agg := out[t]
			agg.Transmissions += c.Transmissions
			agg.Deliveries += c.Deliveries
			agg.Lost += c.Lost
			agg.Bytes += c.Bytes
			out[t] = agg
		}
	}
	return out
}

// Transmissions returns the total transmissions across all types/phases.
func (r *Recorder) Transmissions() int {
	n := 0
	for _, c := range r.Total() {
		n += c.Transmissions
	}
	return n
}

// Report renders the accounting as an aligned table, one block per
// phase, rows ordered by message type.
func (r *Recorder) Report() string {
	r.mu.Lock()
	defer r.mu.Unlock()
	var b strings.Builder
	for i := range r.phases {
		ph := &r.phases[i]
		if len(ph.byTyp) == 0 {
			continue
		}
		fmt.Fprintf(&b, "phase %q:\n", ph.name)
		fmt.Fprintf(&b, "  %-14s %10s %12s %8s %12s\n", "type", "tx", "deliveries", "lost", "bytes")
		types := make([]wire.Type, 0, len(ph.byTyp))
		for t := range ph.byTyp {
			types = append(types, t)
		}
		sort.Slice(types, func(a, c int) bool { return types[a] < types[c] })
		var tot Counts
		for _, t := range types {
			c := ph.byTyp[t]
			fmt.Fprintf(&b, "  %-14s %10d %12d %8d %12d\n",
				t.String(), c.Transmissions, c.Deliveries, c.Lost, c.Bytes)
			tot.Transmissions += c.Transmissions
			tot.Deliveries += c.Deliveries
			tot.Lost += c.Lost
			tot.Bytes += c.Bytes
		}
		fmt.Fprintf(&b, "  %-14s %10d %12d %8d %12d\n",
			"TOTAL", tot.Transmissions, tot.Deliveries, tot.Lost, tot.Bytes)
	}
	return b.String()
}
