package main

import (
	"encoding/json"
	"fmt"
	"time"

	"acedo/internal/experiment"
	"acedo/internal/optimize"
	"acedo/internal/workload"
)

// searchSize fixes the optimize_search workload's inputs.
type searchSize struct {
	bench      string
	scale      uint64
	budget     int // distinct candidates per search
	population int
	// maxSlowdown is the search's feasibility constraint. At the
	// default 0.05 a 48-candidate search can end with no feasible
	// candidate at all (seen on jess); 0.20 is the
	// paper's own slowdown bound, which the suite checks too.
	maxSlowdown float64
	prefix      uint64 // engine-ladder prefix
}

// fullSearch searches jess at the default scale 10. The benchmark is fixed and the
// seed only seeds the GA, so every seed costs about the same per
// candidate.
func fullSearch() searchSize {
	return searchSize{bench: "jess", scale: 10, budget: 48, population: 16, maxSlowdown: 0.20, prefix: 2_000_000}
}

// coldSearches is how many searches of a run record afresh; every run
// makes them all. Each leaves its trace in the process-wide cache, so
// peak memory grows with the number of recorded traces: runs that
// recorded two or three traces differed by one trace in max_rss_mb.
// Searches after these reuse the recorded traces in turn.
const coldSearches = 3

// searchRun is one search: its recording (cold searches only) and its
// GA.
type searchRun struct {
	opt    experiment.Options
	record time.Duration
	// recordCPU and searchCPU are the process CPU time of the
	// recording and of the GA.
	recordCPU, searchCPU time.Duration
	instr                uint64 // the recorded baseline's instructions
	traceMB              float64
	res                  *optimize.BenchResult
	stats                *optimize.RunStats
	search               time.Duration
	gens                 []time.Duration
	proposed             int
}

// runSearch runs the optimize_search workload: coldSearches cold
// searches — record the benchmark's baseline trace (the cold path),
// then a seeded GA of a fixed budget in which every candidate is a
// hotspot replay under a different configuration — then warm searches,
// whose baseline trace is already cached, until the run time is spent.
// Each cold search steps the VM's call-depth limit, which the program
// never reaches: the simulation is unchanged, but the limit is part of
// the trace cache's key, so every cold search records afresh.
func runSearch(c runConfig, sz searchSize) (*outcome, error) {
	o := newOutcome()
	spec, ok := workload.ByName(sz.bench)
	if !ok {
		return nil, fmt.Errorf("unknown benchmark %q", sz.bench)
	}
	base := experiment.OptionsAtScale(sz.scale)
	base.Parallelism = c.par
	space := optimize.DefaultSpace()

	if err := measureSetup(o, c.setupWindow, space.Validate); err != nil {
		return nil, err
	}

	var searches []searchRun
	start := time.Now()
	for r := 0; r < coldSearches || fits(start, c.seconds, searches[r-1].search); r++ {
		s, err := searchOnce(c.tr, spec, base, space, sz, c.seed, r)
		if err != nil {
			return nil, err
		}
		searches = append(searches, s)
	}

	var evaluated, proposed, fallbacks int
	var search, searchCPU, statWall time.Duration
	var searchInstr, recInstr uint64
	var recS, coldCPU, genMS []float64
	for i, r := range searches {
		evaluated += r.res.Evaluated
		proposed += r.proposed
		fallbacks += r.stats.Fallbacks
		search += r.search
		searchCPU += r.searchCPU
		statWall += r.stats.SearchWall
		searchInstr += r.stats.SearchInstr
		for _, g := range r.gens {
			genMS = append(genMS, ms(g))
		}
		if i >= coldSearches {
			continue
		}
		recInstr += r.instr
		recS = append(recS, secs(r.record))
		coldCPU = append(coldCPU, ms(r.recordCPU+r.searchCPU))
	}
	o.attempted = evaluated
	// A cold search (recording plus GA) is what an optimize job on an
	// uncached benchmark costs; the recording alone spread 39% between
	// runs on a 2-core virtual machine and is a per-layer metric.
	o.e2e["cold_cpu_ms"] = median(coldCPU)
	o.e2e["warm_cpu_ms"] = ms(searchCPU) / float64(evaluated)

	for _, r := range searches {
		o.check(checkSearch(r.res, min(sz.budget, space.Size())))
	}
	first := searches[0]
	opt, err := space.Apply(first.opt, first.res.Best.Config)
	if err != nil {
		return nil, err
	}
	direct, err := experiment.Run(base.AdjustWorkload(spec), experiment.SchemeHotspot, opt)
	if err != nil {
		return nil, err
	}
	o.check(checkReplayed(first.res, direct))
	o.check(oracleChecks(base, oraclePrefix(c.seed, sz.prefix)))

	o.note("optimize_search: %s, %d searches of %d candidates, recordings %v s wall, cold searches %v ms CPU, %.2f candidates/s wall, best EDP saving vs ACE %.3f (search 1)",
		spec.Name, len(searches), sz.budget, recS, coldCPU, float64(evaluated)/secs(search), first.res.EDPSavingVsACE)

	if c.tr != nil {
		l := o.layer
		l["rtrace.record_s"] = sum(recS)
		l["rtrace.record_minstr_per_s"] = float64(recInstr) / 1e6 / sum(recS)
		l["rtrace.trace_mb"] = first.traceMB
		l["optimize.record_s"] = median(recS)
		l["optimize.generation_ms"] = median(genMS)
		l["optimize.candidate_ms"] = ms(search) / float64(evaluated)
		l["optimize.search_minstr_per_s"] = float64(searchInstr) / 1e6 / secs(statWall)
		l["optimize.fresh_ratio"] = float64(evaluated) / float64(proposed)
		l["optimize.fallbacks"] = float64(fallbacks)
		l["experiment.trace_cache_mb"] = float64(experiment.CurrentTraceCacheStats().Bytes) / 1e6
		if err := engineLadder(o, c.tr, workload.Suite(), base, sz.prefix); err != nil {
			return nil, err
		}
		var docs [][]byte
		for _, r := range searches {
			b, err := json.Marshal(r.res)
			if err != nil {
				return nil, err
			}
			docs = append(docs, b)
		}
		if err := storeLadder(o, c.tr, c.dir, docs, true); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// searchOnce runs search r with GA seed 1000·seed + r + 1. The first
// coldSearches searches record their baseline trace first, each under
// its own call-depth limit; later ones reuse those traces in turn (the
// GA finds them in the trace cache). The spec is unadjusted:
// optimize.RunBench scales it to the options itself, and the recording
// here must match.
func searchOnce(tr *tracer, spec workload.Spec, base experiment.Options, space optimize.Space, sz searchSize, seed int64, r int) (searchRun, error) {
	sr := searchRun{opt: base}
	sr.opt.VM.MaxCallDepth += r % coldSearches
	gs, err := optimize.Spec{
		Budget: sz.budget, Seed: seed*1000 + int64(r) + 1,
		Population: sz.population, MaxSlowdown: sz.maxSlowdown,
	}.Normalize()
	if err != nil {
		return sr, err
	}
	if r >= coldSearches {
		return sr, sr.runGA(tr, spec, space, gs)
	}
	sp := tr.begin("rtrace.record", nil)
	t0 := stampNow()
	baseRes, trc, err := experiment.RecordedBaseline(sr.opt.AdjustWorkload(spec), sr.opt)
	sr.record, sr.recordCPU = t0.since()
	if err != nil {
		return sr, err
	}
	if baseRes.Disposition != experiment.RunRecorded {
		return sr, fmt.Errorf("%s search %d: baseline was %s, not recorded", spec.Name, r, baseRes.Disposition)
	}
	sr.instr = baseRes.Instr
	sr.traceMB = float64(trc.MemBytes()) / 1e6
	sp.set("instr", float64(baseRes.Instr))
	sp.set("trace_bytes", float64(trc.MemBytes()))
	sp.end()
	return sr, sr.runGA(tr, spec, space, gs)
}

// runGA runs the GA with the search's options, recording its host
// time and the time between generations.
func (sr *searchRun) runGA(tr *tracer, spec workload.Spec, space optimize.Space, gs optimize.Spec) error {
	rsp := tr.begin("optimize.RunBench", nil)
	last := time.Now()
	progress := func(gen, evaluated int, best optimize.Eval, improved bool) {
		now := time.Now()
		sr.gens = append(sr.gens, now.Sub(last))
		last = now
		sr.proposed = (gen + 1) * gs.Population
		gsp := tr.begin("optimize.generation", rsp)
		gsp.set("evaluated", float64(evaluated))
		gsp.end()
	}
	t0 := stampNow()
	var err error
	sr.res, sr.stats, err = optimize.RunBench(spec, sr.opt, space, gs, progress)
	sr.search, sr.searchCPU = t0.since()
	rsp.end()
	return err
}
