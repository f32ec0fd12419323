package serve

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/cluster"
	"repro/internal/experiments"
)

// benchSeed hands every benchmark job a seed no other job (or test in
// this package) has used, so the process-global run cache never turns
// a measured evolution into a replay across -count repetitions.
var benchSeed atomic.Uint64

func init() { benchSeed.Store(1 << 40) }

// BenchmarkServeThroughput measures end-to-end daemon throughput in
// jobs/sec: real HTTP over loopback, SSE watch to completion, tiny
// fixed-cost CartPole evolutions. The j=1 case is the serial floor —
// one worker, jobs back to back — and j=N shows scheduler scaling
// across NumCPU workers. Their ratio is the pool's parallel speedup.
func BenchmarkServeThroughput(b *testing.B) {
	// Floor the parallel case at 2 so single-core machines still
	// exercise the multi-worker path (there it measures pipelining of
	// HTTP/SSE overhead against compute rather than core scaling).
	parallel := runtime.NumCPU()
	if parallel < 2 {
		parallel = 2
	}
	for _, workers := range []int{1, parallel} {
		b.Run(fmt.Sprintf("j=%d", workers), func(b *testing.B) {
			// Every job here has a unique seed, so each one leaves an
			// entry in the process-global run cache. Start each
			// sub-benchmark with an empty cache and a fresh GC floor:
			// otherwise the heap accumulated by earlier sub-runs taxes
			// later ones and the j=1 vs j=N comparison measures cache
			// residue, not scheduling.
			experiments.ResetCaches()
			runtime.GC()
			sched := NewScheduler(Config{
				MaxRunning: workers,
				MaxQueue:   b.N + 16, // admission is not under test here
			})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := &http.Server{Handler: NewServer(sched)}
			go srv.Serve(ln)
			c := &Client{Base: "http://" + ln.Addr().String(), Name: "bench"}
			base := benchSeed.Add(uint64(b.N)) - uint64(b.N)

			b.ResetTimer()
			rep, err := c.Load(context.Background(), LoadSpec{
				Template:      Spec{Workload: "cartpole", Population: 16, Generations: 2, Seed: base},
				Jobs:          b.N,
				Concurrency:   workers * 4,
				DistinctSeeds: true,
				Watch:         true,
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if rep.Completed != b.N {
				b.Fatalf("completed %d of %d jobs: %+v", rep.Completed, b.N, rep)
			}
			b.ReportMetric(rep.JobsPerSec, "jobs/sec")

			sched.Drain(time.Minute)
			srv.Close()
		})
	}
}

// BenchmarkClusterThroughput measures fleet scaling end to end: a
// coordinator dispatching jobs over real loopback HTTP to w in-process
// worker daemons, each capped at 2 run slots so capacity grows with
// fleet size. The w=1/w=2 ratio is the PR8 cluster-speedup headline in
// BENCH_PR8.json; on a single-core host it measures the pipelining of
// dispatch overhead against compute rather than core scaling (the
// recorded ratio carries that caveat).
func BenchmarkClusterThroughput(b *testing.B) {
	for _, nWorkers := range []int{1, 2} {
		b.Run(fmt.Sprintf("w=%d", nWorkers), func(b *testing.B) {
			experiments.ResetCaches()
			runtime.GC()
			var workers []*fleetWorker
			var cleanups []func()
			for i := 0; i < nWorkers; i++ {
				ln, err := net.Listen("tcp", "127.0.0.1:0")
				if err != nil {
					b.Fatal(err)
				}
				addr := "http://" + ln.Addr().String()
				w := &fleetWorker{addr: addr, id: cluster.MemberID(addr)}
				w.sched = NewScheduler(Config{
					MaxRunning: 2,
					MaxQueue:   b.N + 16,
				})
				w.srv = &http.Server{Handler: NewServer(w.sched)}
				go w.srv.Serve(ln)
				workers = append(workers, w)
				cleanups = append(cleanups, func() {
					w.sched.Drain(time.Minute)
					w.srv.Close()
				})
			}
			members := clusterMembership(workers)
			sched := NewScheduler(Config{
				MaxRunning: nWorkers * 2,
				MaxQueue:   b.N + 16,
				Executor:   &Dispatcher{Members: members},
			})
			ln, err := net.Listen("tcp", "127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			srv := &http.Server{Handler: NewServer(sched)}
			go srv.Serve(ln)
			c := &Client{Base: "http://" + ln.Addr().String(), Name: "bench"}
			base := benchSeed.Add(uint64(b.N)) - uint64(b.N)

			b.ResetTimer()
			rep, err := c.Load(context.Background(), LoadSpec{
				Template:      Spec{Workload: "cartpole", Population: 16, Generations: 2, Seed: base},
				Jobs:          b.N,
				Concurrency:   nWorkers * 4,
				DistinctSeeds: true,
				Watch:         true,
			})
			b.StopTimer()
			if err != nil {
				b.Fatal(err)
			}
			if rep.Completed != b.N {
				b.Fatalf("completed %d of %d jobs: %+v", rep.Completed, b.N, rep)
			}
			b.ReportMetric(rep.JobsPerSec, "jobs/sec")

			sched.Drain(time.Minute)
			srv.Close()
			for _, f := range cleanups {
				f()
			}
		})
	}
}
