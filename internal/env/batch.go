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
	// LaneEnv returns the scalar Env backing one lane, for a fitness
	// function that reads the final state of a finished episode, or nil
	// for CartPole, whose batch keeps its state in planes and whose
	// fitness is its summed reward. Every other batch is built on
	// laneBatch, whose lanes are values of the task's scalar type.
	LaneEnv(lane int) Env
}

// NewBatch constructs a width-lane batch of the named environment.
// Every classic-control task is native: each step computes the trig of
// all active lanes with the vector sin/cos kernel, a few calls per step
// (CartPole's pole angle; one call per RK4 stage for Acrobot's three
// arguments and one for its observation; MountainCar's cos(3·pos);
// LunarLander's attitude; Bipedal's four joint cosines, then its
// lidar's terrain sines), and runs the physics it shares with the
// scalar Step per lane. Mario and the RAM titles step each lane with
// the scalar Step.
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
	case "mario":
		return newLaneBatch[Mario](name, width), nil
	}
	if _, ok := ramTitles[name]; !ok {
		return nil, fmt.Errorf("env: unknown environment %q (have %v)", name, Names())
	}
	return newLaneBatch[RAMGame](name, width), nil
}

// envPtr constrains a lane type E to a scalar environment: *E is the
// Env.
type envPtr[E any] interface {
	*E
	Env
}

// laneBatch is the Batch of every task but CartPole: one value of the
// task's scalar Env type per lane, so LaneEnv hands a fitness function
// the lane's own environment. Its StepAll runs the scalar Step on each
// lane's action column, which is each lane's exact scalar operation
// sequence (Reset fully re-initializes a lane, as the serial runner
// relies on). The native batches embed it and replace only StepAll.
type laneBatch[E any, P envPtr[E]] struct {
	width int
	lanes []E
	act   []float64 // gather scratch, one lane's action column
}

// newLaneBatch builds width lanes, each a copy of a fresh instance from
// the named environment's registered constructor.
func newLaneBatch[E any, P envPtr[E]](name string, width int) *laneBatch[E, P] {
	b := &laneBatch[E, P]{width: width, lanes: make([]E, width)}
	for i := range b.lanes {
		b.lanes[i] = *factories[name]().(P)
	}
	b.act = make([]float64, b.lane(0).ActionSize())
	return b
}

// lane returns lane i's environment.
func (b *laneBatch[E, P]) lane(i int) P { return P(&b.lanes[i]) }

func (b *laneBatch[E, P]) Name() string         { return b.lane(0).Name() }
func (b *laneBatch[E, P]) ObservationSize() int { return b.lane(0).ObservationSize() }
func (b *laneBatch[E, P]) ActionSize() int      { return b.lane(0).ActionSize() }
func (b *laneBatch[E, P]) MaxSteps() int        { return b.lane(0).MaxSteps() }
func (b *laneBatch[E, P]) Width() int           { return b.width }
func (b *laneBatch[E, P]) LaneEnv(lane int) Env { return b.lane(lane) }
func (b *laneBatch[E, P]) SwapLanes(i, j int)   { b.lanes[i], b.lanes[j] = b.lanes[j], b.lanes[i] }

func (b *laneBatch[E, P]) ResetLane(lane int, seed uint64, obs []float64) {
	for i, v := range b.lane(lane).Reset(seed) {
		obs[i*b.width+lane] = v
	}
}

func (b *laneBatch[E, P]) StepAll(obs, rewards []float64, done []bool, actions []float64, active int) {
	w := b.width
	for lane := 0; lane < active; lane++ {
		for i := range b.act {
			b.act[i] = actions[i*w+lane]
		}
		col, r, d := b.lane(lane).Step(b.act)
		for i, v := range col {
			obs[i*w+lane] = v
		}
		rewards[lane] = r
		done[lane] = d
	}
}
