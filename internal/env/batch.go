package env

import "fmt"

// Batch drives up to Width independent instances ("lanes") of one
// environment in lock-step, exchanging state with the batched network
// kernel through struct-of-arrays planes: row i of the observation
// plane holds input i of every lane contiguously (obs[i*Width+lane]),
// and likewise for the action plane. This is the environment half of
// the population-level-parallel rollout: one StepAll advances every
// live episode exactly one timestep.
//
// Lanes are independent episodes. ResetLane (re)starts one lane with
// its own seed — the backfill operation of the batch scheduler — and
// SwapLanes exchanges two lanes' entire episode state so finished
// episodes can be compacted out of the active prefix. StepAll must not
// be called on a lane whose previous step reported done (mirroring the
// scalar contract that an Env is Reset before further Steps).
//
// Per lane, a Batch implementation performs exactly the float and RNG
// operations of the scalar Env it mirrors, in the same order — batched
// evaluation is pinned byte-identical to the serial path.
type Batch interface {
	// Name is the workload identifier, e.g. "cartpole".
	Name() string
	// ObservationSize is the row count of the observation plane.
	ObservationSize() int
	// ActionSize is the row count of the action plane.
	ActionSize() int
	// MaxSteps bounds every lane's episode length.
	MaxSteps() int
	// Width is the lane capacity (the plane stride).
	Width() int
	// ResetLane restarts lane with the given episode seed and writes
	// its initial observation column into the obs plane.
	ResetLane(lane int, seed uint64, obs []float64)
	// StepAll advances lanes [0, active) one timestep on the action
	// plane, writing new observation columns, per-lane rewards, and
	// per-lane done flags.
	StepAll(obs, rewards []float64, done []bool, actions []float64, active int)
	// SwapLanes exchanges the episode state of two lanes.
	SwapLanes(a, b int)
	// LaneEnv returns the scalar Env backing one lane, or nil for a
	// native struct-of-arrays implementation with no per-lane Env
	// value (cartpole's). Fitness shapers that type-assert their
	// concrete environment only exist for workloads whose batch has
	// lane envs: the generic adapter and the native acrobot,
	// mountaincar, lunarlander and bipedal batches, whose lanes are
	// Acrobot, MountainCar, LunarLander and Bipedal values.
	LaneEnv(lane int) Env
}

// NewBatch constructs a width-lane batch of the named environment.
// Every classic-control task is native: each step computes the trig of
// all active lanes with the vector sin/cos kernel, a few calls per step
// (CartPole's pole angle; one call per RK4 stage for Acrobot's three
// arguments and one for its observation; MountainCar's cos(3·pos);
// LunarLander's attitude; Bipedal's four joint cosines, then its
// lidar's terrain sines), and runs the physics it shares with the
// scalar Step per lane. The RAM titles and Mario get a generic adapter
// looping over fresh scalar instances.
func NewBatch(name string, width int) (Batch, error) {
	if width < 1 {
		return nil, fmt.Errorf("env: batch width %d < 1", width)
	}
	switch name {
	case "cartpole":
		return newCartPoleBatch(width), nil
	case "acrobot":
		return newAcrobotBatch(width), nil
	case "mountaincar":
		return newMountainCarBatch(width), nil
	case "lunarlander":
		return newLunarLanderBatch(width), nil
	case "bipedal":
		return newBipedalBatch(width), nil
	}
	f, ok := factories[name]
	if !ok {
		return nil, fmt.Errorf("env: unknown environment %q (have %v)", name, Names())
	}
	return newGenericBatch(name, f, width), nil
}

// newGenericBatch builds the generic adapter over width fresh instances
// from f.
func newGenericBatch(name string, f func() Env, width int) *genericBatch {
	g := &genericBatch{name: name, width: width, inner: make([]Env, width)}
	for i := range g.inner {
		g.inner[i] = f()
	}
	g.act = make([]float64, g.inner[0].ActionSize())
	return g
}

// genericBatch adapts any registered Env to the Batch interface by
// holding one scalar instance per lane and looping. No vector speedup —
// its job is uniformity: the batch scheduler drives every workload
// through one code path, and each lane still performs exactly the
// scalar operation sequence (same instance reuse semantics as the
// serial runner: Reset fully re-initializes an instance).
type genericBatch struct {
	name  string
	width int
	inner []Env
	act   []float64 // gather scratch, one lane's action column
}

func (g *genericBatch) Name() string         { return g.name }
func (g *genericBatch) ObservationSize() int { return g.inner[0].ObservationSize() }
func (g *genericBatch) ActionSize() int      { return g.inner[0].ActionSize() }
func (g *genericBatch) MaxSteps() int        { return g.inner[0].MaxSteps() }
func (g *genericBatch) Width() int           { return g.width }
func (g *genericBatch) LaneEnv(lane int) Env { return g.inner[lane] }

func (g *genericBatch) ResetLane(lane int, seed uint64, obs []float64) {
	col := g.inner[lane].Reset(seed)
	for i, v := range col {
		obs[i*g.width+lane] = v
	}
}

func (g *genericBatch) StepAll(obs, rewards []float64, done []bool, actions []float64, active int) {
	w := g.width
	for lane := 0; lane < active; lane++ {
		for i := range g.act {
			g.act[i] = actions[i*w+lane]
		}
		col, r, d := g.inner[lane].Step(g.act)
		for i, v := range col {
			obs[i*w+lane] = v
		}
		rewards[lane] = r
		done[lane] = d
	}
}

func (g *genericBatch) SwapLanes(a, b int) {
	g.inner[a], g.inner[b] = g.inner[b], g.inner[a]
}
