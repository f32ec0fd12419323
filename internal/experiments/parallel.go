package experiments

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
)

// Outcome is one experiment's result as delivered by RunAll.
type Outcome struct {
	ID  string
	Res *Result
	Err error
}

// RunAll regenerates the named experiments with at most opt.workers()
// generators in flight and delivers every outcome to emit in the order
// the ids were given — the same results, in the same order, a serial
// loop over Run would produce, regardless of which generator finishes
// first. emit runs on RunAll's own goroutine, so rendering from it is
// interleaving-free. Unknown ids fail fast before anything runs, so a
// typo cannot waste an hour of evolution; generator errors are
// collected per id (joined in id order in the returned error) without
// stopping the other experiments.
func RunAll(ids []string, opt Options, emit func(Outcome)) error {
	opt = opt.withDefaults()
	for _, id := range ids {
		if _, ok := registry[id]; !ok {
			return fmt.Errorf("experiments: unknown experiment %q (have %v)", id, IDs())
		}
	}
	ctx := opt.ctx()
	sem := make(chan struct{}, opt.workers())
	outcomes := make([]chan Outcome, len(ids))
	for i := range ids {
		outcomes[i] = make(chan Outcome, 1)
		go func(i int, id string) {
			sem <- struct{}{}
			defer func() { <-sem }()
			o := Outcome{ID: id}
			defer func() {
				if p := recover(); p != nil {
					o.Res, o.Err = nil, fmt.Errorf("generator panic: %v", p)
				}
				outcomes[i] <- o
			}()
			if err := ctx.Err(); err != nil {
				o.Err = err
				return
			}
			o.Res, o.Err = Run(id, opt)
		}(i, ids[i])
	}
	var errs []error
	for i, id := range ids {
		o := <-outcomes[i]
		if o.Err != nil {
			errs = append(errs, fmt.Errorf("%s: %w", id, o.Err))
		}
		if emit != nil {
			emit(o)
		}
	}
	return errors.Join(errs...)
}

// forIndexed runs f(i) for every i in [0, n) with at most workers
// concurrent calls, returning the lowest-index error. It is the
// fan-out primitive of the design-point sweeps and the warm-up
// prefetches: callers write results into index-addressed slots and
// assemble them serially afterwards, so a parallel sweep emits rows in
// exactly the order the serial loop did. workers ≤ 1 degenerates to a
// plain loop with no goroutines.
func forIndexed(workers, n int, f func(int) error) error {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := f(i); err != nil {
				return err
			}
		}
		return nil
	}
	errs := make([]error, n)
	sem := make(chan struct{}, workers)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			defer func() {
				if p := recover(); p != nil {
					errs[i] = fmt.Errorf("sweep point %d: panic: %v", i, p)
				}
			}()
			errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// workers resolves the effective harness parallelism.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.NumCPU()
}

// warmRuns prefetches run 0 of each workload into the run cache, up to
// opt.workers() evolutions at a time. Figures that loop over a suite
// call it first: the loop body then assembles rows from cache hits, so
// row order stays serial while the evolutions overlap.
func warmRuns(workloads []string, opt Options) error {
	return forIndexed(opt.workers(), len(workloads), func(i int) error {
		_, err := runWorkload(workloads[i], opt)
		return err
	})
}

// warmComparisons prefetches priced comparisons the same way.
func warmComparisons(workloads []string, opt Options) error {
	return forIndexed(opt.workers(), len(workloads), func(i int) error {
		_, err := runComparison(workloads[i], opt)
		return err
	})
}

// warmStudies prefetches multi-run studies the same way.
func warmStudies(workloads []string, opt Options) error {
	return forIndexed(opt.workers(), len(workloads), func(i int) error {
		_, err := studyFor(workloads[i], opt)
		return err
	})
}
