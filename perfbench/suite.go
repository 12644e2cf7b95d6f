package main

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"acedo/internal/experiment"
	"acedo/internal/rtrace"
	"acedo/internal/workload"
)

// suiteSize fixes the suite workload's inputs.
type suiteSize struct {
	scale  uint64 // scale divisor (10 = what acetables runs)
	shape  bool   // check the paper's headline shape (full-size programs only)
	prefix uint64 // engine-oracle and engine-ladder prefix per program
}

// fullSuite is the default-scale 7-benchmark comparison that
// `acetables -json` runs.
func fullSuite() suiteSize {
	return suiteSize{scale: 10, shape: true, prefix: 2_000_000}
}

// suitePass is one pass over the suite: its snapshot, wall and CPU
// time, and the benchmarks whose baseline recorded a trace.
type suitePass struct {
	snap     experiment.BenchSnapshot
	wall     time.Duration
	cpu      time.Duration
	recorded []string
	// Traced only: Σ run span durations and the resident bytes of the
	// traces the pass recorded.
	runSpans   time.Duration
	traceBytes int
}

// minWarmPasses is the least number of warm passes a run makes. Each
// warm pass re-records the traces the cache did not admit, and the
// process's peak memory grew with the number of passes: runs that fit
// one warm pass into the run time and runs that fit two differed by
// 20% in max_rss_mb. The cold pass and two warm passes take 31–43 s
// on a 2-core host, past a 25-second run time, so every run makes two.
const minWarmPasses = 2

// suitePar is the suite's parallelism: one comparison at a time. With
// nproc = 2 comparisons at once (what acetables runs), one run's three
// warm passes took 9.6 s, 11.3 s and 14.8 s of CPU time: two
// simulations on the host's two vCPUs slowed each other by a share that
// changed from pass to pass. One at a time, a run's two warm passes
// differed by 2–10%. A single comparison still replays bbv and hotspot
// side by side, as Compare does.
const suitePar = 1

// runSuite runs the suite workload: a cold pass in this fresh process
// (every benchmark records its trace), then warm passes until the run
// time is spent. The process-wide trace cache admits traces
// first-come up to its budget, so a warm pass replays what the cold
// pass kept and re-records the rest.
func runSuite(c runConfig, sz suiteSize) (*outcome, error) {
	o := newOutcome()
	opt := experiment.OptionsAtScale(sz.scale)
	c.par = suitePar
	opt.Parallelism = c.par
	specs := workload.Suite()
	for i := range specs {
		specs[i] = opt.AdjustWorkload(specs[i])
	}

	if err := measureSetup(o, c.setupWindow, nil); err != nil {
		return nil, err
	}

	start := time.Now()
	cold, err := suiteRun(c, opt, specs, "cold")
	if err != nil {
		return nil, err
	}
	tc := experiment.CurrentTraceCacheStats()
	var warm []suitePass
	for len(warm) < minWarmPasses || fits(start, c.seconds, warm[len(warm)-1].wall) {
		w, err := suiteRun(c, opt, specs, "warm")
		if err != nil {
			return nil, err
		}
		warm = append(warm, w)
	}
	runs := 3 * len(specs)
	o.attempted = runs * (1 + len(warm))

	o.e2e["cold_cpu_ms"] = ms(cold.cpu)
	var warmMS, warmCPU []float64
	for _, w := range warm {
		warmMS = append(warmMS, ms(w.wall))
		warmCPU = append(warmCPU, ms(w.cpu))
	}
	o.e2e["warm_cpu_ms"] = median(warmCPU)

	var coldJSON bytes.Buffer
	if err := cold.snap.WriteJSON(&coldJSON); err != nil {
		return nil, err
	}
	o.check(checkSnapshot(cold.snap, len(specs), sz.shape))
	for i, w := range warm {
		var wj bytes.Buffer
		if err := w.snap.WriteJSON(&wj); err != nil {
			return nil, err
		}
		o.check(checkSameBytes(fmt.Sprintf("warm pass %d snapshot", i+1), coldJSON.Bytes(), wj.Bytes()))
	}
	o.check(oracleChecks(opt, oraclePrefix(c.seed, sz.prefix)))

	o.note("suite: cold pass %.3f s wall, %.3f s CPU; warm passes %v ms wall, %v ms CPU; trace cache after the cold pass: %d of %d traces, %d bytes; warm passes re-record %v",
		secs(cold.wall), secs(cold.cpu), warmMS, warmCPU, tc.Entries, len(specs), tc.Bytes, warm[0].recorded)

	if c.tr != nil {
		l := o.layer
		recS := c.tr.durations("rtrace.record")
		l["rtrace.record_s"] = sum(recS)
		if s := sum(recS); s > 0 {
			l["rtrace.record_minstr_per_s"] = c.tr.attrSum("rtrace.record", "instr") / 1e6 / s
		}
		if s := sum(c.tr.durations("rtrace.replay")); s > 0 {
			l["rtrace.replay_minstr_per_s"] = c.tr.attrSum("rtrace.replay", "instr") / 1e6 / s
		}
		l["rtrace.trace_mb"] = float64(cold.traceBytes) / 1e6
		l["bbv.replay_s"] = sum(c.tr.durations("bbv.replay"))
		l["core.replay_s"] = sum(c.tr.durations("core.replay"))
		l["experiment.trace_cache_mb"] = float64(tc.Bytes) / 1e6
		l["experiment.warm_rerecords"] = float64(len(warm[0].recorded))
		l["experiment.idle_core_s"] = float64(runtime.NumCPU())*secs(cold.wall) - secs(cold.runSpans)
		if err := engineLadder(o, c.tr, specs, opt, sz.prefix); err != nil {
			return nil, err
		}
		if err := storeLadder(o, c.tr, c.dir, [][]byte{coldJSON.Bytes()}, true); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// suiteRun runs one pass. Untraced, it is experiment.Collect — exactly
// what acetables runs. Traced, each comparison is broken down into its
// experiment.RecordedBaseline and experiment.ReplayScheme calls, run at
// the same parallelism, with a span around each.
func suiteRun(c runConfig, opt experiment.Options, specs []workload.Spec, pass string) (suitePass, error) {
	if c.tr == nil {
		t0 := stampNow()
		res, err := experiment.Collect(opt)
		wall, cpu := t0.since()
		if err != nil {
			return suitePass{}, err
		}
		p := suitePass{snap: res.Snapshot(), wall: wall, cpu: cpu}
		for _, cmp := range res.Comparisons {
			if cmp.Base.Disposition == experiment.RunRecorded {
				p.recorded = append(p.recorded, cmp.Name)
			}
		}
		return p, nil
	}

	root := c.tr.begin("suite."+pass, nil)
	t0 := stampNow()
	cmps := make([]*experiment.Comparison, len(specs))
	errs := make([]error, len(specs))
	var mu sync.Mutex
	var p suitePass
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < c.par; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				cmp, rec, bytes, spans, err := tracedCompare(c.tr, root, specs[i], opt)
				cmps[i], errs[i] = cmp, err
				mu.Lock()
				p.runSpans += spans
				p.traceBytes += bytes
				if rec {
					p.recorded = append(p.recorded, specs[i].Name)
				}
				mu.Unlock()
			}
		}()
	}
	for i := range specs {
		next <- i
	}
	close(next)
	wg.Wait()
	p.wall, p.cpu = t0.since()
	root.end()
	for _, err := range errs {
		if err != nil {
			return suitePass{}, err
		}
	}
	p.snap = (&experiment.SuiteResults{Options: opt, Comparisons: cmps}).Snapshot()
	return p, nil
}

// tracedCompare is one benchmark's comparison as separate layer calls:
// the baseline (recorded, or replayed from the trace cache) and the
// bbv and hotspot replays. It reports whether the baseline recorded,
// the recorded trace's resident bytes, and the summed duration of its
// run spans.
func tracedCompare(tr *tracer, parent *span, spec workload.Spec, opt experiment.Options) (*experiment.Comparison, bool, int, time.Duration, error) {
	var busy atomic.Int64 // Σ run span durations, ns
	timed := func(name string, fn func() (*experiment.Result, error)) (*experiment.Result, *span, error) {
		sp := tr.begin(name, parent)
		t0 := time.Now()
		r, err := fn()
		busy.Add(int64(time.Since(t0)))
		if r != nil {
			sp.set("instr", float64(r.Instr))
		}
		sp.end()
		return r, sp, err
	}
	var trc *rtrace.Trace
	base, sp, err := timed("rtrace.record", func() (*experiment.Result, error) {
		r, t, err := experiment.RecordedBaseline(spec, opt)
		trc = t
		return r, err
	})
	if err != nil {
		return nil, false, 0, 0, err
	}
	recorded := base.Disposition == experiment.RunRecorded
	var traceBytes int
	if recorded {
		traceBytes = trc.MemBytes()
		sp.set("trace_bytes", float64(traceBytes))
	} else {
		sp.rename("rtrace.replay")
	}
	// The bbv and hotspot replays run side by side, as Compare runs them.
	var bb, hot *experiment.Result
	var bbErr, hotErr error
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		bb, _, bbErr = timed("bbv.replay", func() (*experiment.Result, error) {
			return experiment.ReplayScheme(spec, experiment.SchemeBBV, opt, trc)
		})
	}()
	hot, _, hotErr = timed("core.replay", func() (*experiment.Result, error) {
		return experiment.ReplayScheme(spec, experiment.SchemeHotspot, opt, trc)
	})
	wg.Wait()
	if err := errors.Join(bbErr, hotErr); err != nil {
		return nil, recorded, 0, 0, err
	}
	b, h, bv := experiment.RunSnapshotOf(base, false), experiment.RunSnapshotOf(hot, false), experiment.RunSnapshotOf(bb, false)
	return &experiment.Comparison{
		Name: spec.Name, Base: base, BBVRun: bb, HotRun: hot,
		L1DSavingBBV: saving(base.L1DEnergyNJ, bb.L1DEnergyNJ),
		L1DSavingHot: saving(base.L1DEnergyNJ, hot.L1DEnergyNJ),
		L2SavingBBV:  saving(base.L2EnergyNJ, bb.L2EnergyNJ),
		L2SavingHot:  saving(base.L2EnergyNJ, hot.L2EnergyNJ),
		SlowdownBBV:  slowdown(b, bv),
		SlowdownHot:  slowdown(b, h),
	}, recorded, traceBytes, time.Duration(busy.Load()), nil
}
