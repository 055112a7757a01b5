// Package mobility moves simulated sensor nodes: a seeded, deterministic
// implementation of the two classic ad-hoc mobility models — random
// waypoint (pick a destination, travel at a drawn speed, pause, repeat)
// and random walk (persistent heading with bounded random turns) — driven
// from the simulation engine's event loop.
//
// Determinism contract (docs/MOBILITY.md): the controller advances on
// self-rescheduled coordinator ticks of fixed width Config.Step, bounded
// by Config.Until so RunUntilIdle still quiesces. Each tick moves the
// mobile nodes in ascending index order, and every random draw comes
// from a per-node stream split off Config.Seed — so the full trajectory
// set is a pure function of (Seed, Config, initial positions),
// independent of worker count and shard count. The ticks run as
// coordinator events between epochs, while every shard is parked at a
// barrier, which is the one place the topology may mutate;
// a node crossing a shard stripe simply keeps its lane and shard (the
// assignment is frozen at deploy time) and its traffic rides the
// existing cross-shard mailboxes.
package mobility

import (
	"fmt"
	"math"
	"sort"
	"time"

	"repro/internal/geom"
	"repro/internal/topology"
	"repro/internal/xrand"
)

// Kind selects the mobility model.
type Kind int

const (
	// Waypoint is the random-waypoint model: each node draws a uniform
	// destination and a uniform speed in [SpeedMin, SpeedMax], travels in
	// a straight line (under the graph's metric), pauses Pause at the
	// destination, and repeats.
	Waypoint Kind = iota
	// Walk is the random-walk (random-direction) model: each node keeps
	// a heading and a speed, perturbing the heading by a bounded uniform
	// turn every tick.
	Walk
)

// String returns the model name used by CLI flags and docs.
func (k Kind) String() string {
	switch k {
	case Waypoint:
		return "waypoint"
	case Walk:
		return "walk"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// ParseKind maps a CLI flag value to a Kind.
func ParseKind(s string) (Kind, error) {
	switch s {
	case "waypoint":
		return Waypoint, nil
	case "walk":
		return Walk, nil
	default:
		return 0, fmt.Errorf("mobility: unknown model %q (want waypoint or walk)", s)
	}
}

// Config parameterizes a Controller. The zero value means "no motion":
// Deploy treats an empty node set or a zero Until as mobility off.
type Config struct {
	// Kind selects the model.
	Kind Kind
	// Step is the tick interval; positions advance once per tick.
	// Defaults to 100ms.
	Step time.Duration
	// SpeedMin, SpeedMax bound the drawn speed in region units per
	// second. SpeedMax must be >= SpeedMin >= 0.
	SpeedMin, SpeedMax float64
	// Pause is the waypoint model's dwell time at each destination.
	Pause time.Duration
	// MaxTurn is the walk model's maximum heading change per tick, in
	// radians. Defaults to pi/4.
	MaxTurn float64
	// Nodes lists the mobile node indices. Empty means nothing moves.
	Nodes []int
	// From delays the first tick to From+Step: deployments keep nodes
	// still through the key-setup phases and start motion once the
	// network is operational. Zero starts motion immediately.
	From time.Duration
	// Until is the motion horizon: no tick is scheduled at or beyond
	// it, so a run quiesces once traffic drains. Zero means mobility
	// off.
	Until time.Duration
	// Seed drives every trajectory draw.
	Seed uint64
}

// withDefaults fills unset knobs.
func (c Config) withDefaults() Config {
	if c.Step <= 0 {
		c.Step = 100 * time.Millisecond
	}
	if c.MaxTurn == 0 {
		c.MaxTurn = math.Pi / 4
	}
	return c
}

// Enabled reports whether the configuration asks for any motion.
func (c Config) Enabled() bool { return len(c.Nodes) > 0 && c.Until > 0 }

// Validate rejects configurations that cannot run.
func (c Config) Validate(n int) error {
	if c.Kind != Waypoint && c.Kind != Walk {
		return fmt.Errorf("mobility: unknown kind %d", int(c.Kind))
	}
	if c.Step < 0 {
		return fmt.Errorf("mobility: negative step %v", c.Step)
	}
	if c.Pause < 0 {
		return fmt.Errorf("mobility: negative pause %v", c.Pause)
	}
	if c.From < 0 {
		return fmt.Errorf("mobility: negative from %v", c.From)
	}
	if c.Until < 0 {
		return fmt.Errorf("mobility: negative until %v", c.Until)
	}
	if c.SpeedMin < 0 || c.SpeedMax < c.SpeedMin {
		return fmt.Errorf("mobility: speed range [%v, %v] invalid", c.SpeedMin, c.SpeedMax)
	}
	if c.MaxTurn < 0 {
		return fmt.Errorf("mobility: negative max turn %v", c.MaxTurn)
	}
	for _, i := range c.Nodes {
		if i < 0 || (n > 0 && i >= n) {
			return fmt.Errorf("mobility: node %d outside [0,%d)", i, n)
		}
	}
	return nil
}

// Scheduler is the slice of the simulation engine the controller needs:
// the coordinator-lane Schedule hook. *sim.Engine satisfies it.
type Scheduler interface {
	Schedule(t time.Duration, fn func())
}

// nodeState is one mobile node's trajectory state.
type nodeState struct {
	rng   *xrand.RNG
	speed float64
	// Waypoint state.
	target  geom.Point
	pausing time.Duration // remaining pause, in ticks' worth of time
	// Walk state.
	heading float64
}

// Controller owns the mobile nodes' trajectories and applies one
// topology.MoveNode per mobile node per tick. It must only run on the
// engine's event loop (Schedule callbacks); it is not safe for
// concurrent use.
type Controller struct {
	cfg   Config
	g     *topology.Graph
	nodes []int
	st    map[int]*nodeState
	next  time.Duration
	moves int
	// OnMove, if non-nil, observes every applied position update.
	OnMove func(i int, at time.Duration, p geom.Point)
}

// New builds a controller over g (which it switches into mobility mode)
// and validates cfg. The graph must use positions in [0, Side)².
func New(cfg Config, g *topology.Graph) (*Controller, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(g.N()); err != nil {
		return nil, err
	}
	nodes := append([]int(nil), cfg.Nodes...)
	sort.Ints(nodes)
	// Deduplicate: a node listed twice would otherwise move twice per
	// tick and draw twice from its stream.
	nodes = dedupInts(nodes)
	c := &Controller{cfg: cfg, g: g, nodes: nodes, st: make(map[int]*nodeState, len(nodes))}
	root := xrand.New(cfg.Seed)
	for _, i := range nodes {
		st := &nodeState{rng: root.Split(uint64(i))}
		c.st[i] = st
		switch cfg.Kind {
		case Waypoint:
			c.retarget(i, st)
		case Walk:
			st.heading = st.rng.Float64() * 2 * math.Pi
			st.speed = c.drawSpeed(st)
		}
	}
	if c.Enabled() {
		g.EnableMobility()
	}
	return c, nil
}

func dedupInts(s []int) []int {
	out := s[:0]
	for k, v := range s {
		if k == 0 || v != s[k-1] {
			out = append(out, v)
		}
	}
	return out
}

// Enabled reports whether the controller will move anything.
func (c *Controller) Enabled() bool { return c.cfg.Enabled() }

// Moves returns the number of position updates applied so far.
func (c *Controller) Moves() int { return c.moves }

// Start schedules the first tick. A disabled controller schedules
// nothing, leaving the run byte-identical to a mobility-free one.
func (c *Controller) Start(s Scheduler) {
	if !c.Enabled() {
		return
	}
	c.next = c.cfg.From + c.cfg.Step
	if c.next >= c.cfg.Until {
		return
	}
	s.Schedule(c.next, func() { c.tick(s) })
}

// tick advances every mobile node by one step and reschedules itself
// while the horizon allows.
func (c *Controller) tick(s Scheduler) {
	now := c.next
	dt := c.cfg.Step.Seconds()
	for _, i := range c.nodes {
		st := c.st[i]
		p := c.advance(i, st, dt)
		c.g.MoveNode(i, p)
		c.moves++
		if c.OnMove != nil {
			c.OnMove(i, now, p)
		}
	}
	c.next = now + c.cfg.Step
	if c.next >= c.cfg.Until {
		return
	}
	s.Schedule(c.next, func() { c.tick(s) })
}

// drawSpeed draws a uniform speed in [SpeedMin, SpeedMax].
func (c *Controller) drawSpeed(st *nodeState) float64 {
	return c.cfg.SpeedMin + st.rng.Float64()*(c.cfg.SpeedMax-c.cfg.SpeedMin)
}

// retarget draws a fresh waypoint destination and travel speed.
func (c *Controller) retarget(i int, st *nodeState) {
	side := c.g.Side()
	st.target = geom.Point{X: st.rng.Float64() * side, Y: st.rng.Float64() * side}
	st.speed = c.drawSpeed(st)
}

// advance computes node i's next position after dt seconds.
func (c *Controller) advance(i int, st *nodeState, dt float64) geom.Point {
	p := c.g.Pos(i)
	side := c.g.Side()
	switch c.cfg.Kind {
	case Waypoint:
		if st.pausing > 0 {
			st.pausing -= c.cfg.Step
			return p
		}
		dx, dy := shortestDelta(p, st.target, side, c.g.Metric())
		dist := math.Hypot(dx, dy)
		step := st.speed * dt
		if dist <= step || dist == 0 {
			p = st.target
			st.pausing = c.cfg.Pause
			c.retarget(i, st)
			return p
		}
		p.X = wrap(p.X+dx/dist*step, side)
		p.Y = wrap(p.Y+dy/dist*step, side)
		return p
	case Walk:
		st.heading += (st.rng.Float64()*2 - 1) * c.cfg.MaxTurn
		step := st.speed * dt
		p.X += math.Cos(st.heading) * step
		p.Y += math.Sin(st.heading) * step
		if c.g.Metric() == geom.Torus {
			p.X = wrap(p.X, side)
			p.Y = wrap(p.Y, side)
			return p
		}
		// Planar region: reflect off the walls, bouncing the heading.
		if p.X < 0 || p.X >= side {
			p.X = reflect(p.X, side)
			st.heading = math.Pi - st.heading
		}
		if p.Y < 0 || p.Y >= side {
			p.Y = reflect(p.Y, side)
			st.heading = -st.heading
		}
		return p
	}
	return p
}

// shortestDelta returns the displacement from p to q — through the wrap
// seam when the metric is toroidal and that path is shorter.
func shortestDelta(p, q geom.Point, side float64, metric geom.Metric) (dx, dy float64) {
	dx, dy = q.X-p.X, q.Y-p.Y
	if metric == geom.Torus {
		if dx > side/2 {
			dx -= side
		} else if dx < -side/2 {
			dx += side
		}
		if dy > side/2 {
			dy -= side
		} else if dy < -side/2 {
			dy += side
		}
	}
	return dx, dy
}

// wrap maps x into [0, side).
func wrap(x, side float64) float64 {
	x = math.Mod(x, side)
	if x < 0 {
		x += side
	}
	return x
}

// reflect mirrors an out-of-range coordinate back into [0, side).
func reflect(x, side float64) float64 {
	if x < 0 {
		x = -x
	}
	if x >= side {
		x = 2*side - x
	}
	// A step longer than the region could still escape; clamp to the
	// last representable interior coordinate.
	if x < 0 {
		x = 0
	}
	if x >= side {
		x = math.Nextafter(side, 0)
	}
	return x
}
