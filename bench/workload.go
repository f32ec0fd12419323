package main

import (
	"math"
	"math/rand/v2"

	"repro/internal/serve"
)

// A workload is a fixed job mix. Its job count is derived from -seconds
// through a per-workload rate measured on a 2-core host, never from the
// time a run takes, so both sides of a comparison do identical work.
type workload struct {
	name string
	// why is the reason the workload exists (BENCHMARK.json repeats it).
	why  string
	plan func(seed uint64, seconds int, toy bool) plan
}

// plan is the concrete job sequence of one run.
type plan struct {
	// setups is how many times the run sets up from scratch; setup_s is
	// their median. Cheaper set-ups repeat more, so that each workload
	// spends a few seconds on them.
	setups int
	// warmup runs inside set-up, with seeds outside the measured set.
	warmup []serve.Spec
	// commit runs inside set-up too; the live streams it records are the
	// reference every measured replay of these specs must match.
	commit []serve.Spec
	// batches run in order; together they are the measured pass.
	batches [][]serve.Spec
	// wave submits each batch at once and then watches it; otherwise
	// each client submits its next job when its previous one is done.
	wave bool
	// restart restarts the daemon before every batch: drain, drop the
	// process-wide run cache, and start a new scheduler on the same store.
	restart bool
}

var (
	controlEnvs = []string{"cartpole", "mountaincar", "acrobot", "lunarlander", "bipedal"}
	// replayEnvs are the control tasks whose runs at pop 150 to 1000 solve
	// in two or three generations whatever the seed, so the replayed
	// streams, and with them the replay workload's cost, do not swing with
	// the seed.
	replayEnvs = []string{"cartpole", "acrobot"}
	ramEnvs    = []string{"airraid-ram", "alien-ram", "asterix-ram", "amidar-ram"}
	paretoEnvs = []string{"lunarlander", "mountaincar", "acrobot"}
	islandEnvs = []string{"lunarlander", "mountaincar"}
)

const objectives = "fitness+genes+energy"

var workloads = []workload{
	{
		name: "control",
		why:  "fresh classic-control jobs; evaluation is 93% of phase time and serve overhead shows, so an epoch change should not move it",
		plan: func(seed uint64, seconds int, toy bool) plan {
			pop, gens, n := 150, 50, scaled(seconds, 22)
			if toy {
				pop, gens, n = 16, 2, 4
			}
			spec := func(i int, s uint64) serve.Spec {
				return serve.Spec{Workload: controlEnvs[i%len(controlEnvs)], Population: pop, Generations: gens, Seed: s}
			}
			return plan{setups: setups(toy, 100), warmup: warmup(spec), batches: [][]serve.Spec{specs(seed, 0, n, spec)}}
		},
	},
	{
		name: "atari-sweep",
		why:  "waves of 8 RAM-game jobs with 2304-connection genomes; speciate+reproduce are 57% of phase time, 5 MB store commits most of the rest; 6 of 8 jobs queue",
		plan: func(seed uint64, seconds int, toy bool) plan {
			pop, gens, size, waves := 50, 5, 8, scaled(seconds, 0.8)
			if toy {
				pop, gens, size, waves = 16, 2, 4, 1
			}
			spec := func(i int, s uint64) serve.Spec {
				return serve.Spec{Workload: ramEnvs[i%len(ramEnvs)], Population: pop, Generations: gens, Seed: s}
			}
			p := plan{setups: setups(toy, 7), warmup: warmup(spec), wave: true, restart: true}
			for w := 0; w < waves; w++ {
				p.batches = append(p.batches, specs(seed, w*size, size, spec))
			}
			return p
		},
	},
	{
		name: "replay",
		why:  "no evolution: restarts, then store and memory hits of committed runs; isolates store reads, run decoding and SSE replay",
		plan: func(seed uint64, seconds int, toy bool) plan {
			// The classic-control runs are at pop 400 so that loading one,
			// not the few-millisecond submit round trip, is most of the
			// median job's latency.
			pop, gens, ramPop, ramGens, nCtl, nRAM, rounds := 400, 50, 50, 5, 8, 4, scaled(seconds, 1.25)
			if toy {
				pop, gens, ramPop, ramGens, nCtl, nRAM, rounds = 16, 2, 16, 2, 1, 1, 1
			}
			ctl := func(i int, s uint64) serve.Spec {
				return serve.Spec{Workload: replayEnvs[i%len(replayEnvs)], Population: pop, Generations: gens, Seed: s}
			}
			ram := func(i int, s uint64) serve.Spec {
				return serve.Spec{Workload: ramEnvs[i%len(ramEnvs)], Population: ramPop, Generations: ramGens, Seed: s}
			}
			p := plan{setups: setups(toy, 3), warmup: warmup(ctl), restart: true}
			p.commit = append(specs(seed, 0, nCtl, ctl), specs(seed, nCtl, nRAM, ram)...)
			// Each round loads every committed run from the store, RAM-game
			// runs first, then replays a seeded half of them again from
			// memory; the order within each group is seeded too. Two thirds
			// of the jobs are store hits, so the median job is a
			// classic-control store hit and the 90th percentile a RAM one.
			// Long jobs first keeps both clients busy to the end of a round,
			// so a round's length does not depend on where its RAM runs fell.
			rng := rand.New(rand.NewPCG(seed, 0x7265706c6179))
			shuffled := func(xs []serve.Spec) []serve.Spec {
				xs = append([]serve.Spec(nil), xs...)
				rng.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
				return xs
			}
			ramRuns, ctlRuns := p.commit[nCtl:], p.commit[:nCtl]
			for r := 0; r < rounds; r++ {
				round := append(shuffled(ramRuns), shuffled(ctlRuns)...)
				round = append(round, shuffled(p.commit)[:len(p.commit)/2]...)
				p.batches = append(p.batches, round)
			}
			return p
		},
	},
	{
		name: "pareto-island",
		why:  "one Pareto job to two island jobs; NSGA-II ranking sits between evaluate and epoch, island streams arrive only at the end",
		plan: func(seed uint64, seconds int, toy bool) plan {
			pop, gens, n := 160, 30, scaled(seconds, 13)
			if toy {
				pop, gens, n = 16, 2, 4
			}
			// One Pareto job, then two island jobs, so that the median
			// job's first record is an island stream's and does not sit on
			// the boundary between the two kinds.
			spec := func(i int, s uint64) serve.Spec {
				if i%3 == 0 {
					return serve.Spec{Workload: paretoEnvs[(i/3)%len(paretoEnvs)], Population: pop, Generations: gens,
						Seed: s, Objectives: objectives}
				}
				return serve.Spec{Workload: islandEnvs[i%3-1], Population: pop, Generations: gens,
					Seed: s, Islands: 4, MigrationEvery: 5}
			}
			return plan{setups: setups(toy, 15), warmup: warmup(spec), batches: [][]serve.Spec{specs(seed, 0, n, spec)}}
		},
	},
}

// setups is a workload's set-up repeat count; the smoke test repeats
// twice.
func setups(toy bool, n int) int {
	if toy {
		return 2
	}
	return n
}

// scaled is the job (or batch) count of a run of the given nominal
// length at a fixed rate per second, at least one.
func scaled(seconds int, perSecond float64) int {
	return max(1, int(math.Round(float64(seconds)*perSecond)))
}

// specs builds n jobs i = first..first+n-1 of a workload, each with its
// own seed derived from the workload seed.
func specs(seed uint64, first, n int, spec func(i int, seed uint64) serve.Spec) []serve.Spec {
	out := make([]serve.Spec, n)
	for k := range out {
		out[k] = spec(first+k, jobSeed(seed, first+k))
	}
	return out
}

// warmup is the set-up's two jobs. Their seeds are fixed small numbers,
// which jobSeed never produces, so they are outside every measured set
// and set-up does the same work for every workload seed.
func warmup(spec func(i int, seed uint64) serve.Spec) []serve.Spec {
	return []serve.Spec{spec(0, 1), spec(1, 2)}
}

// jobSeed derives job i's seed from the workload seed (splitmix64).
// The top bit is always set, so a job seed is never 0 (which the daemon
// would replace with its default) and never a warm-up seed.
func jobSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return (z ^ (z >> 31)) | 1<<63
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
