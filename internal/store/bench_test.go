package store

import (
	"fmt"
	"testing"

	"repro/internal/rng"
)

// BenchmarkStoreHitThroughput measures the verified read path — the
// hot loop of a warm daemon where most submissions replay from disk.
// One artifact shaped like a real committed run (~64 KiB history +
// population + trace), read and checksum-verified per iteration.
func BenchmarkStoreHitThroughput(b *testing.B) {
	s, err := Open(Config{Root: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	key := Key{Workload: "cartpole", Population: 64, Generations: 30, Seed: 42}
	history := make([]byte, 0, 48<<10)
	for g := 0; len(history) < 48<<10; g++ {
		history = append(history, fmt.Sprintf(`{"generation":%d,"best_fitness":%f,"mean_fitness":%f,"species":%d}`+"\n",
			g, float64(g)*1.618, float64(g)*0.577, 5+g%7)...)
	}
	population := make([]byte, 12<<10)
	for i := range population {
		population[i] = byte('a' + i%26)
	}
	files := map[string][]byte{
		"history.json":    history,
		"population.json": population,
		"trace.txt":       []byte("G 0\nP 1 2\nC 3 4\n"),
	}
	if err := s.Put(key, Meta{Solved: true, BestFitness: 199, Generations: 30}, files); err != nil {
		b.Fatal(err)
	}
	var total int64
	for _, data := range files {
		total += int64(len(data))
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		art, ok := s.Get(key)
		if !ok {
			b.Fatal("miss")
		}
		if len(art.Files) != 3 {
			b.Fatal("short read")
		}
	}
}

// BenchmarkRecover measures boot verification, the cost every daemon
// restart pays before it serves: 16 committed runs, each with a
// deterministic 5 MiB payload (the size of a pop-50 RAM-game run's
// population in the JSON format of earlier builds; the binary one is
// 0.8–2.2 MB), verified by a fresh Store's Recover per iteration.
func BenchmarkRecover(b *testing.B) {
	const artifacts = 16
	root := b.TempDir()
	s, err := Open(Config{Root: root})
	if err != nil {
		b.Fatal(err)
	}
	population := make([]byte, 0, 5<<20+64)
	for i := uint64(0); len(population) < 5<<20; i++ {
		population = fmt.Appendf(population, `{"key":%d,"weight":%.17g,"enabled":true},`,
			i, float64(rng.Mix64(i)>>11)/(1<<53))
	}
	population = population[:5<<20]
	var total int64
	for seed := uint64(0); seed < artifacts; seed++ {
		files := map[string][]byte{
			"history.json":    fmt.Appendf(nil, `{"schema":"genesys-run/1","seed":%d}`, seed),
			"population.json": population,
			"trace.txt":       []byte("G 0\nP 1 2\nC 3 4\n"),
		}
		key := Key{Workload: "alien-ram", Population: 50, Generations: 5, Seed: seed}
		if err := s.Put(key, Meta{Generations: 5}, files); err != nil {
			b.Fatal(err)
		}
		for _, data := range files {
			total += int64(len(data))
		}
	}
	b.SetBytes(total)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		booted, err := Open(Config{Root: root})
		if err != nil {
			b.Fatal(err)
		}
		if rep := booted.Recover(); rep.Verified != artifacts {
			b.Fatalf("Recover: %+v", rep)
		}
	}
}
