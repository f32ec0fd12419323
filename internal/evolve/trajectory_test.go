package evolve

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"testing"

	"repro/internal/hw/hwsim"
)

// trajectoryDigests pins every workload's evolved output: for a pop-16,
// seed-5 run to 3 generations, the SHA-256 of the JSON of the sink's
// record stream and of the final Pop.Save() document. They guard the
// fitness functions and the environments across refactors, which must
// leave every output byte-identical. A change that alters evolved
// output on purpose (new random streams, a new fitness shape)
// regenerates them: run this test, which reports each mismatching
// digest it computed, and paste those in.
var trajectoryDigests = map[string]struct{ records, population string }{
	"acrobot": {
		"bb87846e7536eb9807e66fca71928fbdf1303ad027de98e79848adf7633e438f",
		"363cace9549be7122b9e42ffd2c9a3faae645649de2e51a64c3f4473b4e0dc4c",
	},
	"airraid-ram": {
		"d0e2dc7a454e7cf946c0beab6927539c3204eb88ce1620d2fb1b3316c37faa3c",
		"5aab020ee2cdc40e6a84781000424cdc2e67f1f48bbbf565486757e07e800e8e",
	},
	"alien-ram": {
		"f370907b2b66e23314b5d7235e02ea3b5fe94cbfb6f027e1092dbc87569a2493",
		"8a5862f5036954fe53f2051686423116ba8d51637f4d728d816f9f4454820ee9",
	},
	"amidar-ram": {
		"3d7ebd41a378b337f2068a574a54c36d12bf69b8ffc5530c0444de90c40f44b5",
		"00ef8c54c7be9e8aa165ebeb48566291a4d9c27c50a857f36d064130295efdd4",
	},
	"asterix-ram": {
		"fcf6e923ea6acab9951e13eb34471581ba710fcecc6c69b98f5280802a16fc09",
		"2dbc86f98c4d89e94b19966704d0063a3f5688edb516eabf71b4beff61660428",
	},
	"bipedal": {
		"c108c247ea17d6645de2140a10e641e669a46c3502101ff2f706282782e99535",
		"2f96286373c2443db3a3cec180931ef7e6b5d5e2827f4a427dc0363e2419534c",
	},
	"cartpole": {
		"9d34a4b2d0e63d373d3828bf1f606f8a1df3cdbe828ce9b063851fb655b83406",
		"3dc41d624fec51c799868158c649192bfb4a648b0ad5dd171333cc6422f7cd55",
	},
	"lunarlander": {
		"fa900ded7cd4fbe9ee8fe2c19c1b57136c3b2431599d817e53d98990fa2b6de5",
		"c63ceeab355bc8a06b276d5f67868953255a0a4d1ccf667b8cdf686f960eb22a",
	},
	"mario": {
		"0c7fbfa5023db4b25fa8b70dbc80ab5c01deb24f1c0c80e7d6f39fad511bcb99",
		"c7ffa8c57e2d842e3592404b54970cb9a910c3e3076795b9e4ca9060dd5ed170",
	},
	"mountaincar": {
		"473f0d20234b0038fea5cbe0b9e562946c2a32bbded09ca53ac086ba74fea23a",
		"51c52352d6a730f98ff3fb7f5aa5f12b501bd9813c7dbc906a6a2772a0da9d0b",
	},
}

func TestTrajectoryDigests(t *testing.T) {
	names := WorkloadNames()
	if len(names) != len(trajectoryDigests) {
		t.Fatalf("%d workloads, %d pinned trajectories", len(names), len(trajectoryDigests))
	}
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			cfg := smallCfg()
			cfg.PopulationSize = 16
			r, err := NewRunner(name, cfg, 5)
			if err != nil {
				t.Fatal(err)
			}
			var recs []hwsim.Record
			r.Sink = hwsim.SinkFunc(func(rec hwsim.Record) { recs = append(recs, rec) })
			if _, err := r.Run(context.Background(), 3); err != nil {
				t.Fatal(err)
			}
			stream, err := json.Marshal(recs)
			if err != nil {
				t.Fatal(err)
			}
			pop, err := r.Pop.Save()
			if err != nil {
				t.Fatal(err)
			}
			want := trajectoryDigests[name]
			if got := digest(stream); got != want.records {
				t.Errorf("record stream digest %s, pinned %s", got, want.records)
			}
			if got := digest(pop); got != want.population {
				t.Errorf("population digest %s, pinned %s", got, want.population)
			}
		})
	}
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestScoreGenomeMatchesEvaluation holds ScoreGenome to its promise on
// every workload: after two generations at pop 16, each genome's
// ScoreGenome result equals, bit for bit, the fitness
// EvaluateGeneration just assigned it.
func TestScoreGenomeMatchesEvaluation(t *testing.T) {
	ctx := context.Background()
	for _, name := range WorkloadNames() {
		t.Run(name, func(t *testing.T) {
			cfg := smallCfg()
			cfg.PopulationSize = 16
			r, err := NewRunner(name, cfg, 5)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := r.Run(ctx, 2); err != nil {
				t.Fatal(err)
			}
			if _, _, _, err := r.EvaluateGeneration(ctx); err != nil {
				t.Fatal(err)
			}
			for _, g := range r.Pop.Genomes {
				got, err := r.ScoreGenome(ctx, g)
				if err != nil {
					t.Fatal(err)
				}
				if math.Float64bits(got) != math.Float64bits(g.Fitness) {
					t.Fatalf("genome %d: ScoreGenome %v, EvaluateGeneration %v", g.ID, got, g.Fitness)
				}
			}
		})
	}
}
