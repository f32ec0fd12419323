package env

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/vmath"
)

// swapCols exchanges two lane columns of a plane with the given row
// count — what the batch scheduler does to keep caller-owned planes
// aligned with SwapLanes.
func swapCols(plane []float64, width, rows, a, b int) {
	for r := 0; r < rows; r++ {
		plane[r*width+a], plane[r*width+b] = plane[r*width+b], plane[r*width+a]
	}
}

// driveBatchVsScalar locks b against one scalar env of the same name
// per lane: lane i starts with seeds[i], both sides take the action
// plane fill writes each step, and observations, rewards and done flags
// are bit-compared every step, with finished lanes compacted out of the
// active prefix via SwapLanes (exercising the scheduler's retire path).
// Every lane must finish within MaxSteps.
func driveBatchVsScalar(t *testing.T, b Batch, seeds []uint64, fill func(actions []float64)) {
	t.Helper()
	width := b.Width()
	scalars := make([]Env, width)
	for i := range scalars {
		e, err := New(b.Name())
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

	for lane, seed := range seeds {
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

	active := width
	for step := 0; active > 0 && step < b.MaxSteps()+5; step++ {
		fill(actions)
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

// laneSeeds returns width episode seeds spread from base.
func laneSeeds(base uint64, width int) []uint64 {
	seeds := make([]uint64, width)
	for lane := range seeds {
		seeds[lane] = base + uint64(lane)*977
	}
	return seeds
}

// uniformActions fills every action plane with values uniform in
// [−0.5, 1.5) from a stream seeded by seed.
func uniformActions(seed uint64) func(actions []float64) {
	rnd := rand.New(rand.NewSource(int64(seed)))
	return func(actions []float64) {
		for i := range actions {
			actions[i] = rnd.Float64()*2 - 0.5
		}
	}
}

// TestBatchMatchesScalar pins every registered environment, through
// whatever NewBatch serves (a native batch for each classic-control
// task, the lane container's per-lane Step for the RAM titles and
// Mario), to the scalar path bit for bit.
func TestBatchMatchesScalar(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			b, err := NewBatch(name, 5)
			if err != nil {
				t.Fatal(err)
			}
			driveBatchVsScalar(t, b, laneSeeds(0xC0FFEE, 5), uniformActions(0xC0FFEE))
		})
	}
}

// laneBatchOf is the lane container over the named environment's
// scalar type with its own per-lane StepAll, even for the tasks whose
// NewBatch batch has a native StepAll or, for CartPole, planes.
func laneBatchOf(name string, width int) Batch {
	switch name {
	case "cartpole":
		return newLaneBatch[CartPole](name, width)
	case "acrobot":
		return newLaneBatch[Acrobot](name, width)
	case "mountaincar":
		return newLaneBatch[MountainCar](name, width)
	case "lunarlander":
		return newLaneBatch[LunarLander](name, width)
	case "bipedal":
		return newLaneBatch[Bipedal](name, width)
	case "mario":
		return newLaneBatch[Mario](name, width)
	}
	return newLaneBatch[RAMGame](name, width)
}

// TestGenericBatchMatchesScalar forces the lane container's per-lane
// StepAll even for the environments with a native batch, pinning the
// container itself.
func TestGenericBatchMatchesScalar(t *testing.T) {
	for _, name := range Names() {
		t.Run(name, func(t *testing.T) {
			driveBatchVsScalar(t, laneBatchOf(name, 5), laneSeeds(0xBEEF, 5), uniformActions(0xBEEF))
		})
	}
}

// withoutVec runs fn with the vector kernels off, as on a host without
// AVX2+FMA.
func withoutVec(fn func()) {
	saved := vmath.HaveVec
	vmath.HaveVec = false
	defer func() { vmath.HaveVec = saved }()
	fn()
}

// fuzzAction reads one fuzzed byte as an action: 0x80, 0x81 and 0x82
// are NaN, +Inf and −Inf, every other byte a value in [−4, 4) in steps
// of 1/32.
func fuzzAction(c byte) float64 {
	switch c {
	case 0x80:
		return math.NaN()
	case 0x81:
		return math.Inf(1)
	case 0x82:
		return math.Inf(-1)
	}
	return float64(int8(c)) / 32
}

// FuzzBatchMatchesScalar reads an environment (any registered one, by
// its index in Names), a width of 1–9 and every lane's 8-byte episode
// seed from the input, then reads the action planes from the rest of
// it, one byte per action (fuzzAction), from the start again when it
// runs out (all zeros when there is none). NewBatch's batch must match
// scalar envs bit for bit, with finished lanes compacted out of the
// active prefix, as in TestBatchMatchesScalar, on the host's path and
// again with the vector kernels off.
func FuzzBatchMatchesScalar(f *testing.F) {
	names := Names()
	seed := func(name string, width byte, laneSeeds []uint64, acts ...byte) []byte {
		b := []byte{byte(slices.Index(names, name)), width}
		for _, s := range laneSeeds {
			b = binary.LittleEndian.AppendUint64(b, s)
		}
		return append(b, acts...)
	}
	f.Add(seed("cartpole", 4, []uint64{1, 2, 3, 4, 5}, 0x20, 0, 0x11, 0xF0, 0x10))
	f.Add(seed("acrobot", 2, []uint64{7, 1 << 40, 9}, 0x80, 0x7F, 0x20, 0xE0, 0))
	f.Add(seed("mountaincar", 8, []uint64{11, 12, 13}, 0x40, 0, 0xC0, 0x10, 0x10, 0x10, 0))
	f.Add(seed("lunarlander", 6, []uint64{21, 22, 23, 24, 25, 26, 27}, 0, 0, 0x40, 0, 0x20, 0, 0, 0x30))
	f.Add(seed("bipedal", 3, []uint64{31, 32, 33, 34}, 0x7F, 0x10, 0x81, 0xF0, 0x05))
	f.Add([]byte{0})
	for _, name := range names { // non-finite actions
		f.Add(seed(name, 3, []uint64{41, 42, 43}, 0x80, 0x10, 0x81, 0x82, 0xF0, 0x80))
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr [2]byte
		data = data[copy(hdr[:], data):]
		name := names[int(hdr[0])%len(names)]
		width := 1 + int(hdr[1])%9
		seeds := make([]uint64, width)
		for lane := range seeds {
			var s [8]byte
			data = data[copy(s[:], data):]
			seeds[lane] = binary.LittleEndian.Uint64(s[:])
		}
		drive := func() {
			b, err := NewBatch(name, width)
			if err != nil {
				t.Fatal(err)
			}
			next := 0
			driveBatchVsScalar(t, b, seeds, func(actions []float64) {
				for i := range actions {
					actions[i] = 0
					if len(data) > 0 {
						actions[i] = fuzzAction(data[next%len(data)])
						next++
					}
				}
			})
		}
		drive()
		withoutVec(drive)
	})
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

// TestNativeBatchRegistered pins which batch NewBatch serves for each
// environment, by type: CartPole's struct-of-arrays batch, which has no
// lane envs; the vector-group batches of Acrobot, MountainCar and
// LunarLander; Bipedal's native StepAll over the lane container; and
// the lane container itself for Mario and the RAM titles. Every other
// batch's LaneEnv is a distinct scalar env per lane (the acrobot and
// mountaincar fitness functions type-assert it).
func TestNativeBatchRegistered(t *testing.T) {
	native := map[string]string{
		"cartpole":    "*env.cartPoleBatch",
		"acrobot":     "*env.acrobotBatch",
		"mountaincar": "*env.mountainCarBatch",
		"lunarlander": "*env.lunarLanderBatch",
		"bipedal":     "*env.bipedalBatch",
	}
	for _, name := range Names() {
		b, err := NewBatch(name, 3)
		if err != nil {
			t.Fatal(err)
		}
		got, want := fmt.Sprintf("%T", b), native[name]
		if want == "" {
			want = fmt.Sprintf("%T", laneBatchOf(name, 3))
		}
		if got != want {
			t.Fatalf("%s: got %s, want %s", name, got, want)
		}
		if name == "cartpole" {
			if b.LaneEnv(0) != nil {
				t.Fatalf("cartpole: LaneEnv = %T, want nil", b.LaneEnv(0))
			}
			continue
		}
		scalar, err := New(name)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := fmt.Sprintf("%T", b.LaneEnv(2)), fmt.Sprintf("%T", scalar); got != want || b.LaneEnv(1) == b.LaneEnv(2) {
			t.Fatalf("%s: LaneEnv = %s, want the lane's own %s", name, got, want)
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
		stepLanesVsScalar(t, b, scalars, obs, rewards, done, actions, step)
		for lane, e := range scalars {
			if !done[lane] {
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

// fuzzState reads 8 fuzzed bytes as one component of an Acrobot state
// within ±bound: a top byte of 0xFF is a NaN carrying the low bits as
// its payload, 0xFE is ±bound and 0xFD is ±0 (the low bit picks the
// sign), and any other value is the low 53 bits as a fraction of the
// range.
func fuzzState(u uint64, bound float64) float64 {
	sign := 1.0
	if u&1 != 0 {
		sign = -1
	}
	switch u >> 56 {
	case 0xFF:
		return math.Copysign(math.Float64frombits(0x7FF0000000000001|u&0x000FFFFFFFFFFFFF), sign)
	case 0xFE:
		return sign * bound
	case 0xFD:
		return math.Copysign(0, sign)
	}
	return bound * (float64(u&(1<<53-1))/(1<<52) - 1)
}

// fuzzStateBits is fuzzState's inverse for the fractions, to write
// seeds: the bits that read as about v within ±bound.
func fuzzStateBits(v, bound float64) uint64 {
	return uint64((v/bound + 1) * (1 << 52))
}

// FuzzAcrobotStep checks the acrobot batch's vector step lane by lane.
// The input's first two bytes give a width of 1–9 and an active count
// of 1 to that width; then each lane of the batch reads 42 bytes (zeros
// when the input runs out): θ1, θ2, θ1' and θ2' (fuzzState within π, 4π
// and 9π: finite angles, as wrapAngle needs, and a NaN anywhere), the
// torque as raw float64 bits (±Inf and NaN included) and the step count
// modulo the budget. One StepAll must leave each active lane's state,
// step count, observation, reward and done bit-equal to a scalar
// Acrobot's Step from the same state and torque, and every inactive
// lane, state and plane columns, as it was: on the host's path and with
// the vector kernel off.
func FuzzAcrobotStep(f *testing.F) {
	type lane struct {
		th1, th2, dth1, dth2, torque uint64
		steps                        uint16
	}
	seed := func(width, active byte, lanes ...lane) []byte {
		b := []byte{width - 1, active - 1}
		for _, l := range lanes {
			for _, u := range []uint64{l.th1, l.th2, l.dth1, l.dth2, l.torque} {
				b = binary.LittleEndian.AppendUint64(b, u)
			}
			b = binary.LittleEndian.AppendUint16(b, l.steps)
		}
		return b
	}
	pi := func(v float64) uint64 { return fuzzStateBits(v, math.Pi) }
	v1 := func(v float64) uint64 { return fuzzStateBits(v, acMaxVel1) }
	v2 := func(v float64) uint64 { return fuzzStateBits(v, acMaxVel2) }
	tq := math.Float64bits
	calm := lane{pi(0.05), pi(-0.02), v1(0.1), v2(-0.1), tq(0.5), 3}
	f.Add(seed(1, 1, calm))
	f.Add(seed(9, 7, calm, // every lane in the range, near its edges
		lane{pi(3.1), pi(-3.1), v1(12.5), v2(-28), tq(-1), 10},
		lane{0xFE << 56, 0xFE<<56 | 1, 0xFE << 56, 0xFE<<56 | 1, tq(1), 20},
		lane{0xFD << 56, 0xFD<<56 | 1, 0xFD << 56, 0xFD<<56 | 1, tq(math.Copysign(0, -1)), 0},
		lane{pi(-2), pi(2.5), v1(-9), v2(20), tq(0.999), 250},
		lane{pi(1), pi(1), v1(3), v2(3), tq(-0.3), 100},
		lane{pi(-0.5), pi(0.7), v1(-1), v2(4), tq(0.2), 400},
	))
	f.Add(seed(5, 5, calm, // the tip above the bar, and the budget's last step
		lane{pi(3.1), pi(0.1), v1(0), v2(0), tq(0), 7},
		lane{pi(0.3), pi(-0.4), v1(0.2), v2(-0.2), tq(-0.7), acBudget - 1},
		calm, calm))
	f.Add(seed(6, 6, calm, // non-finite torques
		lane{pi(0.1), pi(0.2), v1(1), v2(-1), tq(math.Inf(1)), 1},
		lane{pi(0.1), pi(0.2), v1(1), v2(-1), tq(math.Inf(-1)), 1},
		lane{pi(0.1), pi(0.2), v1(1), v2(-1), tq(math.NaN()), 1},
		lane{pi(0.1), pi(0.2), v1(1), v2(-1), 0xFFF4000000000001, 1}, // a signalling NaN
		lane{pi(0.1), pi(0.2), v1(1), v2(-1), tq(1e300), 1}))
	f.Add(seed(8, 8, calm, // NaN in each component, the decline path
		lane{0xFF<<56 | 5, pi(0.2), v1(1), v2(-1), tq(0.1), 1},
		lane{pi(0.1), 0xFF<<56 | 6, v1(1), v2(-1), tq(0.1), 1},
		calm, calm,
		lane{pi(0.1), pi(0.2), 0xFF<<56 | 7, v2(-1), tq(0.1), 1},
		lane{pi(0.1), pi(0.2), v1(1), 0xFF<<56 | 8, tq(0.1), 1},
		calm))
	f.Add(seed(9, 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr [2]byte
		data = data[copy(hdr[:], data):]
		width := 1 + int(hdr[0])%9
		active := 1 + int(hdr[1])%width
		start := make([]Acrobot, width)
		torque := make([]float64, width)
		for i := range start {
			var buf [42]byte
			data = data[copy(buf[:], data):]
			u := func(k int) uint64 { return binary.LittleEndian.Uint64(buf[8*k:]) }
			start[i] = Acrobot{
				th1:   fuzzState(u(0), math.Pi),
				th2:   fuzzState(u(1), math.Pi),
				dth1:  fuzzState(u(2), acMaxVel1),
				dth2:  fuzzState(u(3), acMaxVel2),
				steps: int(binary.LittleEndian.Uint16(buf[40:])) % acBudget,
			}
			torque[i] = math.Float64frombits(u(4))
		}
		check := func() {
			b := newAcrobotBatch(width)
			for i := range start {
				b.setLane(i, &start[i])
			}
			unset := math.Float64frombits(0x7FF0DEAD0000BEEF) // a NaN no step writes
			obs := make([]float64, 6*width)
			rewards := make([]float64, width)
			for i := range obs {
				obs[i] = unset
			}
			for i := range rewards {
				rewards[i] = unset
			}
			done := make([]bool, width)
			b.StepAll(obs, rewards, done, torque, active)
			same := func(what string, lane int, got, want float64) {
				t.Helper()
				if math.Float64bits(got) != math.Float64bits(want) {
					t.Fatalf("lane %d of %d (%d active) %s: batch %v (%016x), want %v (%016x)",
						lane, width, active, what, got, math.Float64bits(got), want, math.Float64bits(want))
				}
			}
			for i := range start {
				want := start[i]
				wantObs := []float64{unset, unset, unset, unset, unset, unset}
				wantReward, wantDone := unset, false
				if i < active {
					wantObs, wantReward, wantDone = want.Step(torque[i : i+1])
				}
				got := b.lane(i)
				same("θ1", i, got.th1, want.th1)
				same("θ2", i, got.th2, want.th2)
				same("θ1'", i, got.dth1, want.dth1)
				same("θ2'", i, got.dth2, want.dth2)
				if got.steps != want.steps {
					t.Fatalf("lane %d: batch steps %d, want %d", i, got.steps, want.steps)
				}
				for k, v := range wantObs {
					same(fmt.Sprintf("obs[%d]", k), i, obs[k*width+i], v)
				}
				same("reward", i, rewards[i], wantReward)
				if done[i] != wantDone {
					t.Fatalf("lane %d of %d (%d active): batch done %v, want %v", i, width, active, done[i], wantDone)
				}
			}
		}
		check()
		withoutVec(check)
	})
}

// unsetBits is a NaN no step writes: the planes' prefill in the step
// fuzzers.
const unsetBits = 0x7FF0DEAD0000BEEF

// sameBits fails unless got and want have the same bits.
func sameBits(t *testing.T, what string, lane int, got, want float64) {
	t.Helper()
	if math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("lane %d %s: batch %v (%016x), want %v (%016x)", lane, what, got, math.Float64bits(got), want, math.Float64bits(want))
	}
}

// checkStepPlanes steps lanes [0, active) of b once on actions, the
// observation and reward planes prefilled with unsetBits and every done
// flag with true, and fails unless each active lane's observation
// column, reward and done equal what want returns for it (the scalar
// Step from the lane's start state), and each other lane's are as
// prefilled.
func checkStepPlanes(t *testing.T, b Batch, actions []float64, active int, want func(lane int) ([]float64, float64, bool)) {
	t.Helper()
	width, rows := b.Width(), b.ObservationSize()
	obs := make([]float64, rows*width)
	rewards := make([]float64, width)
	done := make([]bool, width)
	for _, p := range [][]float64{obs, rewards} {
		for i := range p {
			p[i] = math.Float64frombits(unsetBits)
		}
	}
	for i := range done {
		done[i] = true
	}
	b.StepAll(obs, rewards, done, actions, active)
	for lane := 0; lane < width; lane++ {
		unset := math.Float64frombits(unsetBits)
		wantObs, wantReward, wantDone := make([]float64, rows), unset, true
		for r := range wantObs {
			wantObs[r] = unset
		}
		if lane < active {
			wantObs, wantReward, wantDone = want(lane)
		}
		for r, v := range wantObs {
			sameBits(t, fmt.Sprintf("obs[%d] of %d (%d active)", r, width, active), lane, obs[r*width+lane], v)
		}
		sameBits(t, "reward", lane, rewards[lane], wantReward)
		if done[lane] != wantDone {
			t.Fatalf("lane %d of %d (%d active): batch done %v, want %v", lane, width, active, done[lane], wantDone)
		}
	}
}

// fuzzActions reads n raw float64 action bits per lane from data (zeros
// when it runs out) into an action plane of the given width, row r of
// lane l at r*width+l, and returns the rest of data.
func fuzzActions(data []byte, width, lane, n int, actions []float64) []byte {
	for r := 0; r < n; r++ {
		var u [8]byte
		data = data[copy(u[:], data):]
		actions[r*width+lane] = math.Float64frombits(binary.LittleEndian.Uint64(u[:]))
	}
	return data
}

// FuzzMountainCarStep checks the mountaincar batch's vector step lane by
// lane, as FuzzAcrobotStep does acrobot's. The input's first two bytes
// give a width of 1–9 and an active count of 1 to that width; then each
// lane reads 50 bytes (zeros when the input runs out): the position,
// velocity and highest position (fuzzState within 1.2, 0.07 and 1.2,
// NaN allowed in each), the step count modulo the budget, and its three
// actions as raw float64 bits (±Inf, NaN, a signalling NaN and −0
// included). One StepAll must leave each active lane's state,
// observation, reward and done bit-equal to a scalar MountainCar's Step
// from the same state and actions, and every inactive lane, state and
// plane columns, as it was: on the host's path and with the vector
// kernel off.
func FuzzMountainCarStep(f *testing.F) {
	type lane struct {
		pos, vel, maxPos uint64
		steps            uint16
		acts             [3]float64
	}
	seed := func(width, active byte, lanes ...lane) []byte {
		b := []byte{width - 1, active - 1}
		for _, l := range lanes {
			for _, u := range []uint64{l.pos, l.vel, l.maxPos} {
				b = binary.LittleEndian.AppendUint64(b, u)
			}
			b = binary.LittleEndian.AppendUint16(b, l.steps)
			for _, a := range l.acts {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a))
			}
		}
		return b
	}
	p := func(v float64) uint64 { return fuzzStateBits(v, 1.2) }
	v := func(x float64) uint64 { return fuzzStateBits(x, mcMaxSpeed) }
	left, coast, right := [3]float64{1, 0, 0}, [3]float64{0, 1, 0}, [3]float64{0, 0, 1}
	calm := lane{p(-0.5), v(0.01), p(-0.45), 3, right}
	f.Add(seed(1, 1, calm))
	f.Add(seed(7, 6, calm, // the left wall moving left, the goal, the budget's last step
		lane{0xFE<<56 | 1, 0xFE<<56 | 1, p(-0.4), 10, left},
		lane{p(0.49), v(0.05), p(0.49), 50, right},
		lane{p(-0.3), v(-0.02), p(0.1), mcBudget - 1, coast},
		lane{0xFD << 56, 0xFD<<56 | 1, 0xFD << 56, 0, coast},
		lane{p(0.6), v(0.07), p(0.6), 100, left},
		calm))
	f.Add(seed(9, 9, calm, // non-finite, tied and signed-zero actions
		lane{p(-0.5), v(0), p(-0.5), 1, [3]float64{math.Inf(1), math.Inf(1), 0}},
		lane{p(-0.5), v(0), p(-0.5), 1, [3]float64{math.NaN(), 1, 2}},
		lane{p(-0.5), v(0), p(-0.5), 1, [3]float64{1, math.NaN(), 2}},
		lane{p(-0.5), v(0), p(-0.5), 1, [3]float64{math.Float64frombits(0x7FF4000000000001), 0, 0}}, // a signalling NaN
		lane{p(-0.5), v(0), p(-0.5), 1, [3]float64{math.Copysign(0, -1), 0, math.Copysign(0, -1)}},
		lane{p(-0.5), v(0), p(-0.5), 1, [3]float64{math.Inf(-1), math.Inf(-1), math.Inf(-1)}},
		lane{p(-0.5), v(0), p(-0.5), 1, [3]float64{0, 0, 0}},
		calm))
	f.Add(seed(8, 8, calm, // NaN in each component, the decline path
		lane{0xFF<<56 | 5, v(0.01), p(-0.5), 1, right},
		calm, calm,
		lane{p(-0.5), 0xFF<<56 | 6, p(-0.5), 1, left},
		lane{p(-0.5), v(0.01), 0xFF<<56 | 7, 1, coast},
		calm, calm))
	f.Add(seed(9, 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr [2]byte
		data = data[copy(hdr[:], data):]
		width := 1 + int(hdr[0])%9
		active := 1 + int(hdr[1])%width
		start := make([]MountainCar, width)
		actions := make([]float64, 3*width)
		for i := range start {
			var buf [26]byte
			data = data[copy(buf[:], data):]
			u := func(k int) uint64 { return binary.LittleEndian.Uint64(buf[8*k:]) }
			start[i] = MountainCar{
				pos:    fuzzState(u(0), 1.2),
				vel:    fuzzState(u(1), mcMaxSpeed),
				maxPos: fuzzState(u(2), 1.2),
				steps:  int(binary.LittleEndian.Uint16(buf[24:])) % mcBudget,
			}
			data = fuzzActions(data, width, i, 3, actions)
		}
		check := func() {
			b := newMountainCarBatch(width)
			for i := range start {
				b.setLane(i, &start[i])
			}
			wants := make([]MountainCar, width)
			copy(wants, start)
			checkStepPlanes(t, b, actions, active, func(l int) ([]float64, float64, bool) {
				return wants[l].Step([]float64{actions[l], actions[width+l], actions[2*width+l]})
			})
			for i, want := range wants {
				got := b.lane(i)
				sameBits(t, "pos", i, got.pos, want.pos)
				sameBits(t, "vel", i, got.vel, want.vel)
				sameBits(t, "maxPos", i, got.maxPos, want.maxPos)
				if got.steps != want.steps {
					t.Fatalf("lane %d: batch steps %d, want %d", i, got.steps, want.steps)
				}
			}
		}
		check()
		withoutVec(check)
	})
}

// FuzzLunarLanderStep checks the lunarlander batch's vector step lane by
// lane, as FuzzAcrobotStep does acrobot's. The input's first two bytes
// give a width of 1–9 and an active count of 1 to that width; then each
// lane reads 83 bytes (zeros when the input runs out): x, y, vx, vy, the
// attitude and its rate (fuzzState within 1.2, 2, 2, 2, π and 5: the
// pad, the ground, the playfield's edges and attitudes past π/4 all in
// reach, NaN allowed in each), a byte whose low two bits are the leg
// contacts, the step count modulo the budget, and its four actions as
// raw float64 bits. Every lane starts awake, neither landed nor crashed,
// as StepAll's lanes are. One StepAll must leave each active lane's
// state, its kept shaping potential, observation, reward and done
// bit-equal to a scalar LunarLander's Step from the same state and
// actions (and the potential to the scalar's shaping of the new state),
// and every inactive lane, state and plane columns, as it was: on the
// host's path and with the vector kernel off.
func FuzzLunarLanderStep(f *testing.F) {
	type lane struct {
		x, y, vx, vy, angle, vA uint64
		legs                    byte
		steps                   uint16
		acts                    [4]float64
	}
	seed := func(width, active byte, lanes ...lane) []byte {
		b := []byte{width - 1, active - 1}
		for _, l := range lanes {
			for _, u := range []uint64{l.x, l.y, l.vx, l.vy, l.angle, l.vA} {
				b = binary.LittleEndian.AppendUint64(b, u)
			}
			b = append(b, l.legs)
			b = binary.LittleEndian.AppendUint16(b, l.steps)
			for _, a := range l.acts {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(a))
			}
		}
		return b
	}
	x := func(v float64) uint64 { return fuzzStateBits(v, 1.2) }
	two := func(v float64) uint64 { return fuzzStateBits(v, 2) }
	ang := func(v float64) uint64 { return fuzzStateBits(v, math.Pi) }
	va := func(v float64) uint64 { return fuzzStateBits(v, 5) }
	act := func(a int) [4]float64 { // argmax a
		var c [4]float64
		c[a] = 1
		return c
	}
	calm := lane{x(0.1), two(0.8), two(0.05), two(-0.1), ang(0.05), va(0.1), 0, 20, act(0)}
	f.Add(seed(1, 1, calm))
	f.Add(seed(9, 8, calm, // a soft pad landing, a crash off the pad, a hard landing on it, flyaways past |x| > 1 and y > 1.5, the budget's last step
		lane{x(0.05), two(0.003), two(0.01), two(-0.2), ang(0.1), va(0), 0, 30, act(0)},
		lane{x(0.5), two(0.003), two(0.01), two(-0.2), ang(0.1), va(0), 0, 30, act(0)},
		lane{x(0), two(0.003), two(0), two(-0.5), ang(0), va(0), 0, 30, act(2)},
		lane{x(0.999), two(0.5), two(1), two(0), ang(0.1), va(0), 0, 30, act(1)},
		lane{x(-0.2), two(1.499), two(0), two(1), ang(-0.1), va(0), 0, 30, act(3)},
		lane{x(0.2), two(0.5), two(0), two(0), ang(0.2), va(-0.5), 3, llBudget - 1, act(2)},
		lane{0xFD << 56, 0xFD<<56 | 1, 0xFD << 56, 0xFD<<56 | 1, 0xFD << 56, 0xFD<<56 | 1, 0, 0, act(0)},
		calm))
	f.Add(seed(8, 8, calm, // each action, attitudes past π/4, legs down
		lane{x(0.1), two(0.8), two(0), two(0), ang(1), va(1), 1, 5, act(1)},
		lane{x(0.1), two(0.8), two(0), two(0), ang(-2.5), va(-1), 2, 5, act(2)},
		lane{x(0.1), two(0.8), two(0), two(0), ang(3.1), va(4), 3, 5, act(3)},
		lane{x(-0.1), two(0.8), two(0), two(0), ang(-0.7), va(0.2), 0, 5, act(0)},
		lane{x(0.1), two(0.8), two(0), two(0), ang(0.3), va(1), 0, 5, [4]float64{0, 1, 1, 0}},
		lane{x(0.1), two(0.8), two(0), two(0), ang(0.3), va(1), 0, 5, [4]float64{math.NaN(), math.Inf(1), 0, math.Inf(1)}},
		lane{x(0.1), two(0.8), two(0), two(0), ang(0.3), va(1), 0, 5, [4]float64{math.Float64frombits(0x7FF4000000000001), math.Copysign(0, -1), 0, math.Inf(-1)}}))
	f.Add(seed(8, 8, calm, // NaN in each component, the decline path for the attitude
		lane{0xFF<<56 | 5, two(0.8), two(0), two(0), ang(0.1), va(0), 0, 5, act(1)},
		lane{x(0.1), 0xFF<<56 | 6, two(0), two(0), ang(0.1), va(0), 0, 5, act(2)},
		lane{x(0.1), two(0.8), 0xFF<<56 | 7, two(0), ang(0.1), va(0), 0, 5, act(3)},
		lane{x(0.1), two(0.8), two(0), 0xFF<<56 | 8, ang(0.1), va(0), 0, 5, act(0)},
		lane{x(0.1), two(0.8), two(0), two(0), 0xFF<<56 | 9, va(0), 0, 5, act(1)},
		lane{x(0.1), two(0.8), two(0), two(0), ang(0.1), 0xFF<<56 | 10, 0, 5, act(2)},
		calm))
	f.Add(seed(9, 3))

	f.Fuzz(func(t *testing.T, data []byte) {
		var hdr [2]byte
		data = data[copy(hdr[:], data):]
		width := 1 + int(hdr[0])%9
		active := 1 + int(hdr[1])%width
		start := make([]LunarLander, width)
		actions := make([]float64, 4*width)
		for i := range start {
			var buf [51]byte
			data = data[copy(buf[:], data):]
			u := func(k int) uint64 { return binary.LittleEndian.Uint64(buf[8*k:]) }
			start[i] = LunarLander{
				x: fuzzState(u(0), 1.2), y: fuzzState(u(1), 2),
				vx: fuzzState(u(2), 2), vy: fuzzState(u(3), 2),
				angle: fuzzState(u(4), math.Pi), vA: fuzzState(u(5), 5),
				leg1: buf[48]&1 != 0, leg2: buf[48]&2 != 0,
				steps: int(binary.LittleEndian.Uint16(buf[49:])) % llBudget,
				awake: true,
			}
			data = fuzzActions(data, width, i, 4, actions)
		}
		check := func() {
			b := newLunarLanderBatch(width)
			for i := range start {
				b.setLane(i, &start[i])
			}
			wants := make([]LunarLander, width)
			copy(wants, start)
			checkStepPlanes(t, b, actions, active, func(l int) ([]float64, float64, bool) {
				return wants[l].Step([]float64{actions[l], actions[width+l], actions[2*width+l], actions[3*width+l]})
			})
			for i, want := range wants {
				got := b.lane(i)
				for _, c := range []struct {
					what      string
					got, want float64
				}{
					{"x", got.x, want.x}, {"y", got.y, want.y}, {"vx", got.vx, want.vx}, {"vy", got.vy, want.vy},
					{"angle", got.angle, want.angle}, {"vA", got.vA, want.vA},
					{"shaping", b.groups[i>>2].Shaping[i&3], want.shaping()},
				} {
					sameBits(t, c.what, i, c.got, c.want)
				}
				if got.leg1 != want.leg1 || got.leg2 != want.leg2 || got.steps != want.steps ||
					got.landed != want.landed || got.crashed != want.crashed || got.awake != want.awake {
					t.Fatalf("lane %d: batch legs %v %v steps %d landed %v crashed %v awake %v, want %v %v %d %v %v %v", i,
						got.leg1, got.leg2, got.steps, got.landed, got.crashed, got.awake,
						want.leg1, want.leg2, want.steps, want.landed, want.crashed, want.awake)
				}
			}
		}
		check()
		withoutVec(check)
	})
}

// TestStepKernelsTakeOrdinaryGroups pins that the differential tests
// above ran the vector kernels: on a host with AVX2+FMA, one step of
// freshly reset lanes (a whole group and a partial one) declines no
// group of the acrobot, mountaincar or lunarlander batch; without it
// every group is declined.
func TestStepKernelsTakeOrdinaryGroups(t *testing.T) {
	t.Logf("vector kernels enabled: %v", vmath.HaveVec)
	const width, active = 8, 7
	ac, mc, ll := newAcrobotBatch(width), newMountainCarBatch(width), newLunarLanderBatch(width)
	for _, c := range []struct {
		b        Batch
		declined func(g int) bool
	}{
		{ac, func(g int) bool { return ac.groups[g].Declined }},
		{mc, func(g int) bool { return mc.groups[g].Declined }},
		{ll, func(g int) bool { return ll.groups[g].Declined }},
	} {
		obs := make([]float64, c.b.ObservationSize()*width)
		actions := make([]float64, c.b.ActionSize()*width)
		for i := range actions {
			actions[i] = float64(i%5) / 4
		}
		for lane := 0; lane < active; lane++ {
			c.b.ResetLane(lane, uint64(lane+1), obs)
		}
		c.b.StepAll(obs, make([]float64, width), make([]bool, width), actions, active)
		for g := 0; g < 2; g++ {
			if c.declined(g) == vmath.HaveVec {
				t.Fatalf("%s group %d: Declined %v with vector kernels %v", c.b.Name(), g, c.declined(g), vmath.HaveVec)
			}
		}
	}
}

// TestGroupBatchLaneOpsAllocateNothing pins that the group batches'
// lane operations, which the batch engine calls at every episode's end,
// allocate nothing: LaneEnv hands out the lane's own scalar env, and
// ResetLane and SwapLanes go through it.
func TestGroupBatchLaneOpsAllocateNothing(t *testing.T) {
	const width = 6
	for _, name := range []string{"acrobot", "mountaincar", "lunarlander"} {
		b, err := NewBatch(name, width)
		if err != nil {
			t.Fatal(err)
		}
		obs := make([]float64, b.ObservationSize()*width)
		seed := uint64(1)
		if n := testing.AllocsPerRun(50, func() {
			for lane := 0; lane < width; lane++ {
				b.ResetLane(lane, seed, obs)
				seed++
			}
			b.SwapLanes(1, 4)
			for lane := 0; lane < width; lane++ {
				_ = b.LaneEnv(lane)
			}
		}); n != 0 {
			t.Fatalf("%s: %v allocations per round of lane operations, want 0", name, n)
		}
	}
}

// TestMountainCarBatchPushWithVelocity drives the native mountaincar
// batch with a policy that pushes the way the car is moving, which
// pumps energy until the car reaches the flag and, on the way, runs it
// into the left wall (where the velocity is zeroed); random actions
// reach neither branch. Every lane must match a scalar MountainCar bit
// for bit, done flags included, and at each episode's end LaneEnv's
// AtGoal, Position and MaxPosition must equal the scalar's. Finished
// lanes restart with fresh seeds.
func TestMountainCarBatchPushWithVelocity(t *testing.T) {
	const width = 6
	b := newMountainCarBatch(width)
	scalars := make([]Env, width)
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
		scalars[lane] = e
		e.Reset(seed)
		b.ResetLane(lane, seed, obs)
		seed++
	}
	for lane := range scalars {
		reset(lane)
	}
	goals, walls := 0, 0
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
		stepLanesVsScalar(t, b, scalars, obs, rewards, done, actions, step)
		for lane, se := range scalars {
			e := se.(*MountainCar)
			if e.pos <= mcMinPos {
				walls++
			}
			if !done[lane] {
				continue
			}
			got := b.LaneEnv(lane).(*MountainCar)
			if got.AtGoal() != e.AtGoal() || math.Float64bits(got.Position()) != math.Float64bits(e.Position()) ||
				math.Float64bits(got.MaxPosition()) != math.Float64bits(e.MaxPosition()) {
				t.Fatalf("step %d lane %d: batch at goal %v position %v max %v, scalar %v %v %v",
					step, lane, got.AtGoal(), got.Position(), got.MaxPosition(), e.AtGoal(), e.Position(), e.MaxPosition())
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

// stepLanesVsScalar steps every lane of b once on the action plane,
// steps each lane's scalar env on the lane's action column, and fails
// unless the observations, rewards and done flags agree bit for bit.
func stepLanesVsScalar(t *testing.T, b Batch, scalars []Env, obs, rewards []float64, done []bool, actions []float64, step int) {
	t.Helper()
	w := b.Width()
	b.StepAll(obs, rewards, done, actions, w)
	act := make([]float64, b.ActionSize())
	for lane, e := range scalars {
		for r := range act {
			act[r] = actions[r*w+lane]
		}
		o, r, d := e.Step(act)
		for row, want := range o {
			if got := obs[row*w+lane]; math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("step %d lane %d obs[%d]: batch %v != scalar %v", step, lane, row, got, want)
			}
		}
		if math.Float64bits(r) != math.Float64bits(rewards[lane]) || d != done[lane] {
			t.Fatalf("step %d lane %d: batch reward %v done %v, scalar %v %v", step, lane, rewards[lane], done[lane], r, d)
		}
	}
}

// TestLunarLanderBatchTouchdown drives the native lunarlander batch
// with a descent policy: brake with the main engine when sinking faster
// than 0.15 below y = 0.8, otherwise null the attitude with the side
// thrusters and never steer toward the pad. Episodes end in soft pad
// landings, crashes (on the ground off the pad, or too fast or tilted)
// and flyaways (out of the playfield), which random actions rarely
// reach; each must occur. Every lane must match a scalar LunarLander bit
// for bit, and at each episode's end LaneEnv's Landed and Crashed must
// equal the scalar's. Finished lanes restart with fresh seeds.
func TestLunarLanderBatchTouchdown(t *testing.T) {
	const width = 6
	b := newLunarLanderBatch(width)
	scalars := make([]Env, width)
	obs := make([]float64, b.ObservationSize()*width)
	actions := make([]float64, b.ActionSize()*width)
	rewards := make([]float64, width)
	done := make([]bool, width)
	seed := uint64(500)
	reset := func(lane int) {
		e, err := New("lunarlander")
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
	landed, crashed, flyaways := 0, 0, 0
	for step := 0; step < 4000; step++ {
		for lane := 0; lane < width; lane++ {
			y, vy := obs[1*width+lane], obs[3*width+lane]
			// The attitude half a time unit ahead: angle + vA/2.
			tilt := obs[4*width+lane] + 0.5*obs[5*width+lane]
			a := 0 // coast
			switch {
			case vy < -0.15 && y < 0.8:
				a = 2 // main engine
			case tilt > 0.05:
				a = 1 // left thruster: turns back
			case tilt < -0.05:
				a = 3
			}
			for r := 0; r < 4; r++ {
				actions[r*width+lane] = 0
			}
			actions[a*width+lane] = 1
		}
		stepLanesVsScalar(t, b, scalars, obs, rewards, done, actions, step)
		for lane, e := range scalars {
			if !done[lane] {
				continue
			}
			got, want := b.LaneEnv(lane).(*LunarLander), e.(*LunarLander)
			if got.Landed() != want.Landed() || got.Crashed() != want.Crashed() {
				t.Fatalf("step %d lane %d: batch landed %v crashed %v, scalar %v %v",
					step, lane, got.Landed(), got.Crashed(), want.Landed(), want.Crashed())
			}
			switch {
			case want.Landed():
				landed++
			case want.Crashed() && (math.Abs(want.x) > llFieldHalf || want.y > 1.5):
				flyaways++
			case want.Crashed():
				crashed++
			}
			reset(lane)
		}
	}
	t.Logf("%d soft pad landings, %d crashes, %d flyaways", landed, crashed, flyaways)
	if landed == 0 || crashed == 0 || flyaways == 0 {
		t.Fatalf("%d landings, %d crashes and %d flyaways; each branch must run", landed, crashed, flyaways)
	}
}

// TestBipedalBatchGait drives the native bipedal batch with an
// alternating gait whose hips also push back against the hull's pitch,
// with a gain of 0.5 on even episode seeds (too weak: the hull falls)
// and 2 on odd ones (the walker keeps its feet for the whole 600-step
// budget). Falls, full budgets and each leg alone in stance (one
// contact flag set, the other clear) must all occur. Every lane must
// match a scalar Bipedal bit for bit, and at each episode's end
// LaneEnv's Distance must equal the scalar's. Finished lanes restart
// with fresh seeds.
func TestBipedalBatchGait(t *testing.T) {
	const width = 6
	b := newBipedalBatch(width)
	scalars := make([]Env, width)
	seeds := make([]uint64, width)
	phases := make([]int, width) // steps into the lane's episode
	obs := make([]float64, b.ObservationSize()*width)
	actions := make([]float64, b.ActionSize()*width)
	rewards := make([]float64, width)
	done := make([]bool, width)
	seed := uint64(900)
	reset := func(lane int) {
		e, err := New("bipedal")
		if err != nil {
			t.Fatal(err)
		}
		scalars[lane], seeds[lane], phases[lane] = e, seed, 0
		e.Reset(seed)
		b.ResetLane(lane, seed, obs)
		seed++
	}
	for lane := range scalars {
		reset(lane)
	}
	falls, budgets, stance := 0, 0, [2]int{}
	for step := 0; step < 6000; step++ {
		for lane := 0; lane < width; lane++ {
			gain := 0.5
			if seeds[lane]%2 == 1 {
				gain = 2
			}
			phase := math.Sin(float64(phases[lane]) * 0.3)
			pitch, vPitch := obs[0*width+lane], obs[1*width+lane]
			hips := obs[4*width+lane] + obs[9*width+lane]
			push := -gain * (pitch + 0.5*vPitch + 0.5*hips)
			actions[0*width+lane], actions[1*width+lane] = phase+push, 0.2*phase
			actions[2*width+lane], actions[3*width+lane] = -phase+push, -0.2*phase
			phases[lane]++
		}
		stepLanesVsScalar(t, b, scalars, obs, rewards, done, actions, step)
		for lane, e := range scalars {
			switch c0, c1 := obs[8*width+lane], obs[13*width+lane]; {
			case c0 == 1 && c1 == 0:
				stance[0]++
			case c0 == 0 && c1 == 1:
				stance[1]++
			}
			if !done[lane] {
				continue
			}
			got, want := b.LaneEnv(lane).(*Bipedal), e.(*Bipedal)
			if math.Float64bits(got.Distance()) != math.Float64bits(want.Distance()) {
				t.Fatalf("step %d lane %d: batch distance %v != scalar %v", step, lane, got.Distance(), want.Distance())
			}
			if want.fallen {
				falls++
			} else if want.steps == bwBudget {
				budgets++
			}
			reset(lane)
		}
	}
	t.Logf("%d falls, %d full budgets; leg 0 alone in stance %d lane-steps, leg 1 %d", falls, budgets, stance[0], stance[1])
	if falls == 0 || budgets == 0 || stance[0] == 0 || stance[1] == 0 {
		t.Fatalf("%d falls, %d full budgets, stance legs %v; each branch must run", falls, budgets, stance)
	}
}

// benchStepAll steps a batch of the named environment on fixed random
// actions, resetting each lane when its episode ends, and reports ns
// per lane-step: "native" is the batch native builds, "generic" the
// lane container's per-lane scalar Step (laneBatchOf). The plain cases
// run width 64 with every lane active; the "-narrow" ones width 4 with
// 3 active lanes, the occupancy of most control-workload steps (a
// topology group is usually one genome's 2–3 episodes), where each
// call's fixed cost shows; "native-mid" width 16 with 15 active lanes,
// the mean occupancy of acrobot's steps in the control workload.
func benchStepAll(b *testing.B, name string, native func(width int) Batch) {
	for _, c := range []struct {
		name          string
		mk            func(width int) Batch
		width, active int
	}{
		{"native", native, 64, 64},
		{"generic", func(w int) Batch { return laneBatchOf(name, w) }, 64, 64},
		{"native-narrow", native, 4, 3},
		{"generic-narrow", func(w int) Batch { return laneBatchOf(name, w) }, 4, 3},
		{"native-mid", native, 16, 15},
	} {
		b.Run(c.name, func(b *testing.B) {
			width, active := c.width, c.active
			be := c.mk(width)
			obs := make([]float64, be.ObservationSize()*width)
			actions := make([]float64, be.ActionSize()*width)
			rewards := make([]float64, width)
			done := make([]bool, width)
			rnd := rand.New(rand.NewSource(5))
			for i := range actions {
				actions[i] = rnd.Float64()*2 - 1
			}
			seed := uint64(0)
			for lane := 0; lane < active; lane++ {
				be.ResetLane(lane, seed, obs)
				seed++
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				be.StepAll(obs, rewards, done, actions, active)
				for lane, d := range done[:active] {
					if d {
						be.ResetLane(lane, seed, obs)
						seed++
					}
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*active), "ns/lane-step")
		})
	}
}

func BenchmarkCartPoleStepAll(b *testing.B) {
	benchStepAll(b, "cartpole", func(w int) Batch { return newCartPoleBatch(w) })
}

func BenchmarkAcrobotStepAll(b *testing.B) {
	benchStepAll(b, "acrobot", func(w int) Batch { return newAcrobotBatch(w) })
}

func BenchmarkMountainCarStepAll(b *testing.B) {
	benchStepAll(b, "mountaincar", func(w int) Batch { return newMountainCarBatch(w) })
}

func BenchmarkLunarLanderStepAll(b *testing.B) {
	benchStepAll(b, "lunarlander", func(w int) Batch { return newLunarLanderBatch(w) })
}

func BenchmarkBipedalStepAll(b *testing.B) {
	benchStepAll(b, "bipedal", func(w int) Batch { return newBipedalBatch(w) })
}
