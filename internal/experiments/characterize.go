package experiments

import (
	"fmt"

	"repro/internal/env"
	"repro/internal/evolve"
	"repro/internal/hw/hwsim"
	"repro/internal/neat"
	"repro/internal/stats"
)

func init() {
	register("table1", TableI)
	register("fig2", Fig2)
	register("fig4a", Fig4a)
	register("fig4b", Fig4b)
	register("fig4c", Fig4c)
	register("fig5a", Fig5a)
	register("fig5b", Fig5b)
	register("fig11a", Fig11a)
}

// TableI regenerates Table I: the environment suite with observation
// and action spaces.
func TableI(opt Options) (*Result, error) {
	r := &Result{ID: "table1", Title: "OpenAI-gym-equivalent environments"}
	t := Table{Header: []string{"Environment", "Observation", "Action", "MaxSteps"}}
	for _, name := range env.Names() {
		e, err := env.New(name)
		if err != nil {
			return nil, err
		}
		t.Rows = append(t.Rows, []string{
			name, inum(e.ObservationSize()), inum(e.ActionSize()), inum(e.MaxSteps()),
		})
		r.series("obs:"+name, float64(e.ObservationSize()))
		r.series("act:"+name, float64(e.ActionSize()))
	}
	t.Notes = append(t.Notes,
		"RAM titles are synthetic 128-byte machines (see DESIGN.md substitutions)")
	r.Tables = append(r.Tables, t)
	return r, nil
}

// Fig2 regenerates the motivating figure: max and average normalized
// fitness per generation against the target, on the Mario surrogate.
func Fig2(opt Options) (*Result, error) {
	r := &Result{ID: "fig2", Title: "Neuro-evolution in action (Mario surrogate)"}
	e, err := runWorkload("mario", opt)
	if err != nil {
		return nil, err
	}
	t := Table{
		Title:  "normalized fitness vs generation (target = 1.0)",
		Header: []string{"gen", "max", "average"},
	}
	for _, st := range e.runner.History {
		t.Rows = append(t.Rows, []string{
			inum(st.Generation), fnum(st.NormMax), fnum(st.NormMean),
		})
		r.series("max", st.NormMax)
		r.series("avg", st.NormMean)
	}
	t.Raw = stats.Chart(r.Series["max"], 60, 10)
	if e.solved {
		t.Notes = append(t.Notes, fmt.Sprintf("target fitness reached at generation %d",
			len(e.runner.History)-1))
	}
	r.Tables = append(r.Tables, t)
	return r, nil
}

// fig4Suite is the workload set plotted in Fig. 4.
func fig4Suite() []string {
	return []string{"cartpole", "lunarlander", "mountaincar", "asterix-ram"}
}

// studyFor returns the workload's multi-run characterization study,
// computing it on first request and serving identical later requests
// from the shared study cache (Fig. 4a, 5a, and 5b previously each
// re-ran the same control studies). Study runs themselves fan out
// under the harness parallelism cap.
func studyFor(wl string, opt Options) (*evolve.Study, error) {
	key := studyKey{
		workload:    wl,
		population:  opt.popFor(wl),
		generations: opt.gensFor(wl),
		runs:        opt.Runs,
		seed:        opt.Seed,
	}
	return studyCache.get(key, func() (*evolve.Study, error) {
		cfg := neat.DefaultConfig(1, 1)
		cfg.PopulationSize = opt.popFor(wl)
		return evolve.RunStudyContext(opt.ctx(), wl, cfg, opt.Runs, opt.gensFor(wl), opt.Seed,
			evolve.StudyOptions{Parallelism: opt.workers()})
	})
}

// studyRecords returns the per-generation record stream of the
// workload's study, synthesized from the cached study's histories in
// (run, generation) order — the same multiset a live sink would have
// captured, in the order hwsim.Log.Records sorts every stream into, so
// downstream readers see identical records either way.
func studyRecords(wl string, opt Options) (*hwsim.Log, error) {
	st, err := studyFor(wl, opt)
	if err != nil {
		return nil, err
	}
	log := &hwsim.Log{}
	for _, res := range st.Results {
		sink := hwsim.Tagged{Sink: log, Workload: wl, Run: res.Run}
		for _, g := range res.History {
			sink.Record(hwsim.Record{Generation: g.Generation, Report: g.CounterReport()})
		}
	}
	return log, nil
}

// Fig4a regenerates the normalized-fitness evolution curves from
// parallel multi-run studies (the paper ran 100 runs per application).
func Fig4a(opt Options) (*Result, error) {
	r := &Result{ID: "fig4a", Title: "Normalized fitness vs generation"}
	if err := warmStudies(fig4Suite(), opt); err != nil {
		return nil, err
	}
	for _, wl := range fig4Suite() {
		st, err := studyFor(wl, opt)
		if err != nil {
			return nil, err
		}
		t := Table{Title: wl, Header: []string{"gen", "norm-max", "norm-mean", "solved"}}
		first := st.Results[0]
		for _, g := range first.History {
			t.Rows = append(t.Rows, []string{
				inum(g.Generation), fnum(g.NormMax), fnum(g.NormMean),
				fmt.Sprintf("%v", g.Solved),
			})
			r.series(wl+":max", g.NormMax)
		}
		for _, res := range st.Results {
			r.series(wl+":final", res.History[len(res.History)-1].NormMax)
			r.series(wl+":generations", float64(len(res.History)))
		}
		t.Raw = stats.Chart(st.MeanNormMaxByGeneration(), 60, 8)
		if sum := st.GenerationsToSolve(); sum.N > 0 {
			t.Notes = append(t.Notes, fmt.Sprintf(
				"solved %d/%d runs; generations-to-solve %s (the Fig. 4a run-to-run variance)",
				sum.N, len(st.Results), sum))
		}
		r.Tables = append(r.Tables, t)
	}
	return r, nil
}

// Fig4b regenerates the total-gene growth curves: the control suite in
// the thousands, the RAM suite in the hundred-thousands (scaled by the
// configured population).
func Fig4b(opt Options) (*Result, error) {
	r := &Result{ID: "fig4b", Title: "Population gene totals vs generation"}
	suite := append(evolve.ControlSuite(), "airraid-ram", "alien-ram", "asterix-ram")
	if err := warmRuns(suite, opt); err != nil {
		return nil, err
	}
	t := Table{Header: []string{"workload", "gen0", "mid", "final", "genes/genome", "pop"}}
	for _, wl := range suite {
		e, err := runWorkload(wl, opt)
		if err != nil {
			return nil, err
		}
		h := e.runner.History
		first, mid, last := h[0].TotalGenes, h[len(h)/2].TotalGenes, h[len(h)-1].TotalGenes
		pop := opt.popFor(wl)
		t.Rows = append(t.Rows, []string{
			wl, inum(first), inum(mid), inum(last),
			inum(last / pop), inum(pop),
		})
		r.series(wl+":genes", float64(first), float64(mid), float64(last))
		r.series(wl+":genesPerGenome", float64(last)/float64(pop))
	}
	t.Notes = append(t.Notes,
		"paper (pop=150): control suite ~10^3 total genes, RAM suite ~10^5;",
		"per-genome gene counts are population-independent — multiply by 150 to compare")
	r.Tables = append(r.Tables, t)
	return r, nil
}

// Fig4c regenerates the fittest-parent-reuse curves.
func Fig4c(opt Options) (*Result, error) {
	r := &Result{ID: "fig4c", Title: "Fittest parent reuse vs generation"}
	suite := []string{"acrobot", "cartpole", "lunarlander", "mountaincar",
		"airraid-ram", "alien-ram"}
	if err := warmRuns(suite, opt); err != nil {
		return nil, err
	}
	t := Table{Header: []string{"workload", "mean-reuse", "max-reuse", "reuse/pop"}}
	for _, wl := range suite {
		e, err := runWorkload(wl, opt)
		if err != nil {
			return nil, err
		}
		var reuse []float64
		maxReuse := 0.0
		for _, st := range e.runner.History {
			if st.Solved {
				continue
			}
			reuse = append(reuse, float64(st.FittestParentReuse))
			if m := float64(st.MaxParentReuse); m > maxReuse {
				maxReuse = m
			}
			r.series(wl+":reuse", float64(st.FittestParentReuse))
		}
		s := stats.Summarize(reuse)
		pop := float64(opt.popFor(wl))
		t.Rows = append(t.Rows, []string{
			wl, fnum(s.Mean), fnum(maxReuse), fnum(maxReuse / pop),
		})
		r.series(wl+":maxReuse", maxReuse)
	}
	t.Notes = append(t.Notes,
		"paper (pop=150): fittest parent reused ~20×/generation, up to 80 of 150 children")
	r.Tables = append(r.Tables, t)
	return r, nil
}

// Fig5a regenerates the reproduction-op distributions: thousands of
// gene ops per generation for the control suite, hundred-thousand scale
// for the RAM suite at paper population.
func Fig5a(opt Options) (*Result, error) {
	r := &Result{ID: "fig5a", Title: "Crossover+mutation ops per generation (distribution)"}
	suite := append(evolve.ControlSuite(), "alien-ram")
	if err := warmStudies(suite, opt); err != nil {
		return nil, err
	}
	for _, wl := range suite {
		log, err := studyRecords(wl, opt)
		if err != nil {
			return nil, err
		}
		h := stats.NewLogHistogram(2)
		// Pool the reproduction-op counts across every recorded
		// generation of every run; solved generations record no
		// reproduction, as in Study.OpsPerGeneration.
		var all []float64
		for _, rec := range log.Records() {
			if rec.Report.Int("solved") != 0 {
				continue
			}
			all = append(all, float64(rec.Report.Int("crossover_ops")+rec.Report.Int("mutation_ops")))
		}
		for _, v := range all {
			h.Add(v)
		}
		s := stats.Summarize(all)
		t := Table{
			Title:  wl,
			Header: []string{"bucket-lo", "bucket-hi", "freq%"},
			Notes:  []string{s.String()},
		}
		for _, b := range h.Buckets() {
			t.Rows = append(t.Rows, []string{fnum(b.Lo), fnum(b.Hi), fnum(b.Frac * 100)})
		}
		r.series(wl+":medianOps", s.Median)
		r.Tables = append(r.Tables, t)
	}
	return r, nil
}

// Fig5b regenerates the per-generation memory-footprint distributions
// (<1 MB at paper scale).
func Fig5b(opt Options) (*Result, error) {
	r := &Result{ID: "fig5b", Title: "Memory footprint per generation (distribution)"}
	paperPop := 150.0
	suite := append(evolve.ControlSuite(), "amidar-ram")
	if err := warmStudies(suite, opt); err != nil {
		return nil, err
	}
	for _, wl := range suite {
		log, err := studyRecords(wl, opt)
		if err != nil {
			return nil, err
		}
		scale := paperPop / float64(opt.popFor(wl))
		var all []float64
		for _, v := range log.Series("footprint_bytes") {
			all = append(all, v*scale)
		}
		s := stats.Summarize(all)
		t := Table{
			Title:  wl + " (scaled to pop=150)",
			Header: []string{"min-KB", "median-KB", "max-KB", "<1MB"},
			Rows: [][]string{{
				fnum(s.Min / 1024), fnum(s.Median / 1024), fnum(s.Max / 1024),
				fmt.Sprintf("%v", s.Max < 1<<20),
			}},
		}
		r.series(wl+":maxFootprint", s.Max)
		r.Tables = append(r.Tables, t)
	}
	return r, nil
}

// Fig11a regenerates the gene-type composition per workload.
func Fig11a(opt Options) (*Result, error) {
	r := &Result{ID: "fig11a", Title: "Gene-type composition (connections vs nodes)"}
	t := Table{Header: []string{"workload", "node-genes", "conn-genes", "conn-share%"}}
	if err := warmRuns(evolve.PaperSuite(), opt); err != nil {
		return nil, err
	}
	for _, wl := range evolve.PaperSuite() {
		e, err := runWorkload(wl, opt)
		if err != nil {
			return nil, err
		}
		last := e.runner.Last()
		share := 0.0
		if tot := last.NodeGenes + last.ConnGenes; tot > 0 {
			share = float64(last.ConnGenes) / float64(tot) * 100
		}
		t.Rows = append(t.Rows, []string{
			wl, inum(last.NodeGenes), inum(last.ConnGenes), fnum(share),
		})
		r.series(wl+":connShare", share)
	}
	t.Notes = append(t.Notes,
		"more connection genes → denser packed matrices → higher ADAM utilization")
	r.Tables = append(r.Tables, t)
	return r, nil
}
