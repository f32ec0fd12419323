package env

import (
	"math"
	"math/rand"
	"testing"
)

// swapCols exchanges two lane columns of a plane with the given row
// count — what the batch scheduler does to keep caller-owned planes
// aligned with SwapLanes.
func swapCols(plane []float64, width, rows, a, b int) {
	for r := 0; r < rows; r++ {
		plane[r*width+a], plane[r*width+b] = plane[r*width+b], plane[r*width+a]
	}
}

// driveBatchVsScalar locks a Batch against per-lane scalar envs: same
// seeds, same action columns, bit-compared observations, rewards, and
// done flags every step, with finished lanes compacted out of the
// active prefix via SwapLanes (exercising the scheduler's retire path).
func driveBatchVsScalar(t *testing.T, name string, mk func(width int) Batch, seedBase uint64) {
	t.Helper()
	const width = 5
	b := mk(width)
	scalars := make([]Env, width)
	for i := range scalars {
		e, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		scalars[i] = e
	}
	obsRows, actRows := b.ObservationSize(), b.ActionSize()
	obs := make([]float64, obsRows*width)
	rewards := make([]float64, width)
	done := make([]bool, width)
	actions := make([]float64, actRows*width)
	scalarObs := make([][]float64, width)
	act := make([]float64, actRows)

	for lane := 0; lane < width; lane++ {
		seed := seedBase + uint64(lane)*977
		b.ResetLane(lane, seed, obs)
		scalarObs[lane] = append([]float64(nil), scalars[lane].Reset(seed)...)
	}
	compareObs := func(active int, step int) {
		t.Helper()
		for lane := 0; lane < active; lane++ {
			for r := 0; r < obsRows; r++ {
				got, want := obs[r*width+lane], scalarObs[lane][r]
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d lane %d obs[%d]: batch %v != scalar %v", step, lane, r, got, want)
				}
			}
		}
	}
	compareObs(width, -1)

	rnd := rand.New(rand.NewSource(int64(seedBase)))
	active := width
	for step := 0; active > 0 && step < b.MaxSteps()+5; step++ {
		for i := 0; i < actRows*width; i++ {
			actions[i] = rnd.Float64()*2 - 0.5
		}
		b.StepAll(obs, rewards, done, actions, active)
		for lane := 0; lane < active; lane++ {
			for r := 0; r < actRows; r++ {
				act[r] = actions[r*width+lane]
			}
			o, rw, d := scalars[lane].Step(act)
			copy(scalarObs[lane], o)
			if math.Float64bits(rw) != math.Float64bits(rewards[lane]) {
				t.Fatalf("step %d lane %d: batch reward %v != scalar %v", step, lane, rewards[lane], rw)
			}
			if d != done[lane] {
				t.Fatalf("step %d lane %d: batch done %v != scalar %v", step, lane, done[lane], d)
			}
		}
		compareObs(active, step)
		for lane := active - 1; lane >= 0; lane-- {
			if !done[lane] {
				continue
			}
			last := active - 1
			if lane != last {
				b.SwapLanes(lane, last)
				swapCols(obs, width, obsRows, lane, last)
				scalars[lane], scalars[last] = scalars[last], scalars[lane]
				scalarObs[lane], scalarObs[last] = scalarObs[last], scalarObs[lane]
				done[lane], done[last] = done[last], done[lane]
			}
			active--
		}
	}
	if active > 0 {
		t.Fatalf("%d lanes never finished within MaxSteps", active)
	}
}

// TestBatchMatchesScalar pins every registered environment, through
// whatever NewBatch serves (native for cartpole, generic otherwise),
// to the scalar path bit for bit.
func TestBatchMatchesScalar(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			driveBatchVsScalar(t, name, func(width int) Batch {
				b, err := NewBatch(name, width)
				if err != nil {
					t.Fatal(err)
				}
				return b
			}, 0xC0FFEE)
		})
	}
}

// TestGenericBatchMatchesScalar forces the generic adapter even for
// cartpole, which has a native batch, pinning the adapter itself.
func TestGenericBatchMatchesScalar(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			driveBatchVsScalar(t, name, func(width int) Batch {
				return newGenericBatch(name, factories[name], width)
			}, 0xBEEF)
		})
	}
}

// TestNewBatchErrors covers the construction guards.
func TestNewBatchErrors(t *testing.T) {
	if _, err := NewBatch("cartpole", 0); err == nil {
		t.Fatal("width 0 must fail")
	}
	if _, err := NewBatch("no-such-env", 4); err == nil {
		t.Fatal("unknown env must fail")
	}
}

// TestNativeBatchRegistered pins which workloads NewBatch serves
// natively: cartpole, acrobot and mountaincar, by their batch types.
// The acrobot and mountaincar lanes are Acrobot and MountainCar values,
// so their LaneEnv is the lane's own *Acrobot or *MountainCar, not nil
// (the mountaincar shaper type-asserts it). Every other environment,
// the RAM titles included, gets the generic adapter, with real lane
// envs.
func TestNativeBatchRegistered(t *testing.T) {
	b, err := NewBatch("cartpole", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.(*cartPoleBatch); !ok || b.LaneEnv(0) != nil {
		t.Fatalf("cartpole: expected the native batch with no lane envs, got %T", b)
	}
	b, err = NewBatch("acrobot", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.(*acrobotBatch); !ok {
		t.Fatalf("acrobot: expected the native batch, got %T", b)
	}
	if _, ok := b.LaneEnv(2).(*Acrobot); !ok {
		t.Fatalf("acrobot: LaneEnv = %T, want the lane's *Acrobot", b.LaneEnv(2))
	}
	b, err = NewBatch("mountaincar", 3)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := b.(*mountainCarBatch); !ok {
		t.Fatalf("mountaincar: expected the native batch, got %T", b)
	}
	if _, ok := b.LaneEnv(2).(*MountainCar); !ok {
		t.Fatalf("mountaincar: LaneEnv = %T, want the lane's *MountainCar", b.LaneEnv(2))
	}
	for _, name := range Names() {
		if name == "cartpole" || name == "acrobot" || name == "mountaincar" {
			continue
		}
		b, err := NewBatch(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if _, ok := b.(*genericBatch); !ok || b.LaneEnv(0) == nil {
			t.Fatalf("%s: expected the generic batch with real lane envs, got %T", name, b)
		}
	}
}

// TestAcrobotBatchSwingUp drives the native acrobot batch with a
// policy that swings the tip above the bar (torque along θ2'), so
// episodes end by the tip rather than the budget, which random actions
// never reach. Every lane must match a scalar Acrobot bit for bit,
// done flags included, and at each episode's end LaneEnv's TipHeight
// must equal the scalar's. Finished lanes restart with fresh seeds.
func TestAcrobotBatchSwingUp(t *testing.T) {
	const width = 6
	b := newAcrobotBatch(width)
	scalars := make([]Env, width)
	obs := make([]float64, b.ObservationSize()*width)
	actions := make([]float64, width)
	rewards := make([]float64, width)
	done := make([]bool, width)
	seed := uint64(100)
	reset := func(lane int) {
		e, err := New("acrobot")
		if err != nil {
			t.Fatal(err)
		}
		scalars[lane] = e
		e.Reset(seed)
		b.ResetLane(lane, seed, obs)
		seed++
	}
	for lane := range scalars {
		reset(lane)
	}
	tipEnds := 0
	for step := 0; step < 3000; step++ {
		for lane := range actions {
			actions[lane] = -1
			if obs[5*width+lane] >= 0 { // θ2'
				actions[lane] = 1
			}
		}
		b.StepAll(obs, rewards, done, actions, width)
		for lane, e := range scalars {
			o, r, d := e.Step(actions[lane : lane+1])
			for row, want := range o {
				if got := obs[row*width+lane]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d lane %d obs[%d]: batch %v != scalar %v", step, lane, row, got, want)
				}
			}
			if r != rewards[lane] || d != done[lane] {
				t.Fatalf("step %d lane %d: batch reward %v done %v, scalar %v %v", step, lane, rewards[lane], done[lane], r, d)
			}
			if !d {
				continue
			}
			got, want := b.LaneEnv(lane).(*Acrobot), e.(*Acrobot)
			if math.Float64bits(got.TipHeight()) != math.Float64bits(want.TipHeight()) {
				t.Fatalf("step %d lane %d: batch tip %v != scalar %v", step, lane, got.TipHeight(), want.TipHeight())
			}
			if want.steps < acBudget {
				tipEnds++
			}
			reset(lane)
		}
	}
	if tipEnds == 0 {
		t.Fatal("no episode ended by the tip")
	}
}

// TestMountainCarBatchPushWithVelocity drives the native mountaincar
// batch with a policy that pushes the way the car is moving, which
// pumps energy until the car reaches the flag and, on the way, runs it
// into the left wall (where the velocity is zeroed); random actions
// reach neither branch. Every lane must match a scalar MountainCar bit
// for bit, done flags included, and at each episode's end LaneEnv's
// AtGoal and Position must equal the scalar's. Finished lanes restart
// with fresh seeds.
func TestMountainCarBatchPushWithVelocity(t *testing.T) {
	const width = 6
	b := newMountainCarBatch(width)
	scalars := make([]*MountainCar, width)
	obs := make([]float64, b.ObservationSize()*width)
	actions := make([]float64, b.ActionSize()*width)
	rewards := make([]float64, width)
	done := make([]bool, width)
	seed := uint64(300)
	reset := func(lane int) {
		e, err := New("mountaincar")
		if err != nil {
			t.Fatal(err)
		}
		scalars[lane] = e.(*MountainCar)
		e.Reset(seed)
		b.ResetLane(lane, seed, obs)
		seed++
	}
	for lane := range scalars {
		reset(lane)
	}
	goals, walls := 0, 0
	act := make([]float64, 3)
	for step := 0; step < 3000; step++ {
		for lane := 0; lane < width; lane++ {
			push := 0 // left
			if obs[1*width+lane] >= 0 {
				push = 2 // right
			}
			for r := 0; r < 3; r++ {
				actions[r*width+lane] = 0
			}
			actions[push*width+lane] = 1
		}
		b.StepAll(obs, rewards, done, actions, width)
		for lane, e := range scalars {
			for r := range act {
				act[r] = actions[r*width+lane]
			}
			o, r, d := e.Step(act)
			for row, want := range o {
				if got := obs[row*width+lane]; math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("step %d lane %d obs[%d]: batch %v != scalar %v", step, lane, row, got, want)
				}
			}
			if r != rewards[lane] || d != done[lane] {
				t.Fatalf("step %d lane %d: batch reward %v done %v, scalar %v %v", step, lane, rewards[lane], done[lane], r, d)
			}
			if e.pos <= mcMinPos {
				walls++
			}
			if !d {
				continue
			}
			got := b.LaneEnv(lane).(*MountainCar)
			if got.AtGoal() != e.AtGoal() || math.Float64bits(got.Position()) != math.Float64bits(e.Position()) {
				t.Fatalf("step %d lane %d: batch at goal %v position %v, scalar %v %v",
					step, lane, got.AtGoal(), got.Position(), e.AtGoal(), e.Position())
			}
			if e.AtGoal() {
				goals++
			}
			reset(lane)
		}
	}
	t.Logf("%d episodes ended at the flag; %d lane-steps at the left wall", goals, walls)
	if goals == 0 || walls == 0 {
		t.Fatalf("the policy reached the flag %d times and the left wall %d times; both branches must run", goals, walls)
	}
}

// benchStepAll steps a width-64 batch of the named environment with
// every lane active on fixed random actions, resetting each lane when
// its episode ends, and reports ns per lane-step: "native" is the batch
// native builds, "generic" the Env-backed adapter over scalar
// instances.
func benchStepAll(b *testing.B, name string, native func(width int) Batch) {
	const width = 64
	for _, c := range []struct {
		name string
		mk   func() Batch
	}{
		{"native", func() Batch { return native(width) }},
		{"generic", func() Batch { return newGenericBatch(name, factories[name], width) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			be := c.mk()
			obs := make([]float64, be.ObservationSize()*width)
			actions := make([]float64, be.ActionSize()*width)
			rewards := make([]float64, width)
			done := make([]bool, width)
			rnd := rand.New(rand.NewSource(5))
			for i := range actions {
				actions[i] = rnd.Float64()*2 - 1
			}
			seed := uint64(0)
			for lane := 0; lane < width; lane++ {
				be.ResetLane(lane, seed, obs)
				seed++
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				be.StepAll(obs, rewards, done, actions, width)
				for lane, d := range done {
					if d {
						be.ResetLane(lane, seed, obs)
						seed++
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*width), "ns/lane-step")
		})
	}
}

func BenchmarkAcrobotStepAll(b *testing.B) {
	benchStepAll(b, "acrobot", func(w int) Batch { return newAcrobotBatch(w) })
}

func BenchmarkMountainCarStepAll(b *testing.B) {
	benchStepAll(b, "mountaincar", func(w int) Batch { return newMountainCarBatch(w) })
}
