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
	// LaneEnv returns the scalar Env of one lane, distinct per lane,
	// for a fitness function that reads the final state of a finished
	// episode, or nil for CartPole, whose fitness is its summed reward.
	// It stays the lane's until the lane is next reset, swapped or
	// stepped.
	LaneEnv(lane int) Env
}

// NewBatch constructs a batch of the named environment of any width ≥ 1.
// Every classic-control task is native. Acrobot, MountainCar and
// LunarLander are groupBatches: they keep their lanes' state in 4-lane
// vector groups and step them all in one vmath kernel call
// (AcrobotStep, MountainCarStep, LunarLanderStep), which reads the
// action rows and writes the observation, reward and done of each
// active lane in place. CartPole keeps its state in planes and Bipedal
// in scalar lanes; each computes its trig with the vector sin/cos
// kernel (CartPole's pole angle; Bipedal's four joint cosines, then its
// lidar's terrain sines) and runs the physics it shares with the scalar
// Step per lane. Mario and the RAM titles step each lane with the
// scalar Step.
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

// laneBatch is the Batch of Bipedal, Mario and the RAM titles: one
// value of the task's scalar Env type per lane, so LaneEnv hands a
// fitness function the lane's own environment. Its StepAll runs the
// scalar Step on each lane's action column, which is each lane's exact
// scalar operation sequence (Reset fully re-initializes a lane, as the
// serial runner relies on). Bipedal's native batch embeds it and
// replaces only StepAll.
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

// groupLane constrains a scalar environment E whose batch keeps every
// lane's state in 4-lane vector groups of type G: *E is the Env, load
// sets its state to column c of g, and store writes its state there.
type groupLane[E, G any] interface {
	*E
	Env
	load(g *G, c int)
	store(g *G, c int)
}

// groupBatch is what the Acrobot, MountainCar and LunarLander batches
// share: every lane's state lives in 4-lane vmath groups between steps
// (lane l is column l&3 of group l>>2), and each batch's StepAll is one
// call of its task's vmath step kernel, which reads the action rows and
// writes the observation, reward and done of every active lane in
// place, then stepScalar for each group the kernel declined (a trig
// argument outside its window, or a host without AVX2+FMA). The kernel
// is bit-identical to the scalar Step, so a lane is bit-equal to a
// scalar env driven with the same seed and actions. Each lane also has
// a scalar env, which holds the lane's state only while ResetLane,
// SwapLanes, LaneEnv or stepScalar has it loaded, so LaneEnv hands a
// fitness function a distinct env per lane without allocating.
type groupBatch[E, G any, P groupLane[E, G]] struct {
	width  int
	groups []G
	envs   []E       // each lane's scalar env
	act    []float64 // a declined lane's action column
}

// newGroupBatch builds width lanes of the named environment.
func newGroupBatch[E, G any, P groupLane[E, G]](name string, width int) groupBatch[E, G, P] {
	b := groupBatch[E, G, P]{width: width, groups: make([]G, (width+3)/4), envs: make([]E, width)}
	for i := range b.envs {
		b.envs[i] = *factories[name]().(P)
	}
	b.act = make([]float64, P(&b.envs[0]).ActionSize())
	return b
}

// lane loads lane l's state into its scalar env and returns the env.
func (b *groupBatch[E, G, P]) lane(l int) P {
	e := P(&b.envs[l])
	e.load(&b.groups[l>>2], l&3)
	return e
}

// setLane stores e's state as lane l's.
func (b *groupBatch[E, G, P]) setLane(l int, e P) { e.store(&b.groups[l>>2], l&3) }

func (b *groupBatch[E, G, P]) Name() string         { return P(&b.envs[0]).Name() }
func (b *groupBatch[E, G, P]) ObservationSize() int { return P(&b.envs[0]).ObservationSize() }
func (b *groupBatch[E, G, P]) ActionSize() int      { return len(b.act) }
func (b *groupBatch[E, G, P]) MaxSteps() int        { return P(&b.envs[0]).MaxSteps() }
func (b *groupBatch[E, G, P]) Width() int           { return b.width }
func (b *groupBatch[E, G, P]) LaneEnv(lane int) Env { return b.lane(lane) }

func (b *groupBatch[E, G, P]) ResetLane(lane int, seed uint64, obs []float64) {
	e := P(&b.envs[lane])
	for i, v := range e.Reset(seed) {
		obs[i*b.width+lane] = v
	}
	b.setLane(lane, e)
}

func (b *groupBatch[E, G, P]) SwapLanes(i, j int) {
	ei, ej := b.lane(i), b.lane(j)
	b.setLane(i, ej)
	b.setLane(j, ei)
}

// stepScalar runs the scalar Step on the active lanes of group g, which
// the kernel declined and left as they were.
func (b *groupBatch[E, G, P]) stepScalar(g int, obs, rewards []float64, done []bool, actions []float64, active int) {
	w := b.width
	for lane := 4 * g; lane < min(4*g+4, active); lane++ {
		for i := range b.act {
			b.act[i] = actions[i*w+lane]
		}
		e := b.lane(lane)
		col, r, d := e.Step(b.act)
		b.setLane(lane, e)
		for i, v := range col {
			obs[i*w+lane] = v
		}
		rewards[lane], done[lane] = r, d
	}
}
