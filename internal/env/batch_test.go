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
// natively: cartpole alone. The RAM titles and every other environment
// get the generic adapter, with real lane envs.
func TestNativeBatchRegistered(t *testing.T) {
	b, err := NewBatch("cartpole", 3)
	if err != nil {
		t.Fatal(err)
	}
	if b.LaneEnv(0) != nil {
		t.Fatal("cartpole: expected native batch (LaneEnv nil), got generic")
	}
	for _, name := range []string{"airraid-ram", "alien-ram", "asterix-ram", "amidar-ram", "mountaincar"} {
		b, err := NewBatch(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		if b.LaneEnv(0) == nil {
			t.Fatalf("%s: expected generic batch with real lane envs", name)
		}
	}
}
