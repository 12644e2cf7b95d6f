package main

import (
	"encoding/json"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"acedo/internal/experiment"
	"acedo/internal/optimize"
)

// Tiny sizes run every workload's code path and checks in seconds.
// Each uses its own scale, so no workload finds another's trace in the
// process-wide cache.
func tinySuite() suiteSize { return suiteSize{scale: 300, prefix: 200_000} }
func tinySearch() searchSize {
	return searchSize{bench: "compress", scale: 200, budget: 10, population: 8, maxSlowdown: 0.20, prefix: 200_000}
}
func tinyService() serviceSize {
	return serviceSize{specs: 4, repeats: 1, maxInstr: 40_000, prefix: 200_000}
}

func tinyConfig(t *testing.T, traced bool) runConfig {
	c := runConfig{seed: 7, seconds: time.Nanosecond, dir: t.TempDir(), par: 2}
	if traced {
		c.tr = newTracer()
	}
	return c
}

// checkOutcome asserts a clean run: every check passed, no operation
// failed, and every end-to-end metric is positive.
func checkOutcome(t *testing.T, o *outcome, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
	if len(o.problems) > 0 {
		t.Fatalf("checks failed: %v", o.problems)
	}
	if o.attempted == 0 || o.failed != 0 {
		t.Fatalf("attempted %d failed %d", o.attempted, o.failed)
	}
	o.e2e["max_rss_mb"] = maxRSSMB()
	for name := range endToEnd {
		if !(o.e2e[name] > 0) {
			t.Errorf("end-to-end %s = %v, want > 0", name, o.e2e[name])
		}
	}
}

// checkLayers asserts the traced run filled the named layer metrics.
func checkLayers(t *testing.T, o *outcome, names ...string) {
	t.Helper()
	for _, n := range append(names, "workload.build_ms", "vm.engine_minstr_per_s",
		"vm.engine_noaos_minstr_per_s", "store.put_ms", "store.journal_accept_ms",
		"store.get_ms", "store.recover_ms") {
		if _, ok := perLayer[n]; !ok {
			t.Errorf("layer metric %s is not declared", n)
		}
		if !(o.layer[n] > 0) {
			t.Errorf("layer %s = %v, want > 0", n, o.layer[n])
		}
	}
}

func TestSuiteTiny(t *testing.T) {
	for _, traced := range []bool{true, false} { // traced first: it needs the cold trace cache
		c := tinyConfig(t, traced)
		o, err := runSuite(c, tinySuite())
		checkOutcome(t, o, err)
		if traced {
			checkLayers(t, o, "rtrace.record_s", "rtrace.record_minstr_per_s", "rtrace.trace_mb",
				"bbv.replay_s", "core.replay_s", "experiment.trace_cache_mb")
		}
	}
}

func TestSearchTiny(t *testing.T) {
	c := tinyConfig(t, true)
	o, err := runSearch(c, tinySearch())
	checkOutcome(t, o, err)
	checkLayers(t, o, "optimize.record_s", "optimize.generation_ms", "optimize.candidate_ms",
		"optimize.search_minstr_per_s", "optimize.fresh_ratio")
}

// TestSearchTinyWarm gives the search workload time for searches past
// the cold ones, which reuse the cold searches' traces.
func TestSearchTinyWarm(t *testing.T) {
	c := tinyConfig(t, false)
	c.seconds = time.Second
	sz := tinySearch()
	sz.scale++ // traces of its own: TestSearchTiny's are in the process's trace cache
	o, err := runSearch(c, sz)
	checkOutcome(t, o, err)
	if o.attempted <= coldSearches*sz.budget {
		t.Errorf("attempted %d candidates, want more than the %d of the cold searches", o.attempted, coldSearches*sz.budget)
	}
}

func TestFits(t *testing.T) {
	start := time.Now().Add(-10 * time.Second)
	if !fits(start, 25*time.Second, 10*time.Second) {
		t.Error("a 10 s unit 10 s into a 25 s run does not fit")
	}
	if fits(start, 25*time.Second, 20*time.Second) {
		t.Error("a 20 s unit 10 s into a 25 s run fits")
	}
}

// TestCPUClock checks that the process CPU clock counts work and leaves
// out time spent waiting.
func TestCPUClock(t *testing.T) {
	t0 := stampNow()
	time.Sleep(100 * time.Millisecond)
	wall, cpu := t0.since()
	if cpu < 0 || cpu > wall/2 {
		t.Errorf("sleeping %v took %v of CPU time", wall, cpu)
	}
	t0 = stampNow()
	x := uint64(1)
	for i := 0; i < 50_000_000; i++ {
		x = x*6364136223846793005 + 1
	}
	_, cpu = t0.since()
	if x == 0 || cpu < time.Millisecond {
		t.Errorf("50M multiply-adds took %v of CPU time", cpu)
	}
}

func TestServiceTiny(t *testing.T) {
	c := tinyConfig(t, true)
	o, err := runService(c, tinyService())
	checkOutcome(t, o, err)
	checkLayers(t, o, "server.submit_ms", "server.result_ms", "server.exec_ms",
		"server.store_hit_job_p50_ms", "server.cache_hits", "server.store_hits",
		"server.jobs_forwarded", "server.instr_simulated", "cluster.forwarded_job_p50_ms",
		"telemetry.events_mb")
}

// listeners counts the TCP sockets in LISTEN state visible to this
// process (IPv4 and IPv6).
func listeners(t *testing.T) int {
	n := 0
	for _, f := range []string{"/proc/self/net/tcp", "/proc/self/net/tcp6"} {
		b, err := os.ReadFile(f)
		if err != nil {
			continue
		}
		for _, line := range strings.Split(string(b), "\n")[1:] {
			if fs := strings.Fields(line); len(fs) > 3 && fs[3] == "0A" {
				n++
			}
		}
	}
	return n
}

// TestNothingOutlivesWorkload runs the service workload (the one that
// starts servers, listeners and data dirs) and asserts that once it
// returns no goroutine, listener or data dir it made is left.
func TestNothingOutlivesWorkload(t *testing.T) {
	goroutines, listening := runtime.NumGoroutine(), listeners(t)
	c := tinyConfig(t, false)
	o, err := runService(c, tinyService())
	checkOutcome(t, o, err)
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > goroutines && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > goroutines {
		buf := make([]byte, 1<<20)
		t.Fatalf("%d goroutines outlive the workload (%d before):\n%s", n-goroutines, goroutines, buf[:runtime.Stack(buf, true)])
	}
	if n := listeners(t); n > listening {
		t.Errorf("%d listeners outlive the workload", n-listening)
	}
	left, err := os.ReadDir(c.dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left behind in the scratch dir: %s", e.Name())
	}
}

// goodSnapshot is a benchmark snapshot that passes every check.
func goodSnapshot() experiment.BenchmarkSnapshot {
	base := experiment.RunSnapshot{Instr: 1000, Cycles: 2000, IPC: 0.5, L1DEnergyNJ: 100, L2EnergyNJ: 200}
	bb := experiment.RunSnapshot{Instr: 1000, Cycles: 2100, IPC: 1000.0 / 2100, L1DEnergyNJ: 80, L2EnergyNJ: 150, Reconfigs: 3}
	hot := experiment.RunSnapshot{Instr: 1010, Cycles: 2200, IPC: 1010.0 / 2200, L1DEnergyNJ: 60, L2EnergyNJ: 120, Reconfigs: 2, OverheadInstr: 10}
	return experiment.BenchmarkSnapshot{
		Name: "x", Baseline: base, BBV: bb, Hotspot: hot,
		Derived: experiment.DerivedSnapshot{
			L1DSavingBBV: saving(100, 80), L1DSavingHot: saving(100, 60),
			L2SavingBBV: saving(200, 150), L2SavingHot: saving(200, 120),
			SlowdownBBV: slowdown(base, bb), SlowdownHot: slowdown(base, hot),
		},
	}
}

// TestChecksRejectWrongValues feeds each correctness check one wrong
// value and requires it to fail, and the unaltered value to pass.
func TestChecksRejectWrongValues(t *testing.T) {
	snap := func(mut func(*experiment.BenchmarkSnapshot)) experiment.BenchSnapshot {
		b := goodSnapshot()
		mut(&b)
		return experiment.BenchSnapshot{Benchmarks: []experiment.BenchmarkSnapshot{b}}
	}
	if err := checkSnapshot(snap(func(*experiment.BenchmarkSnapshot) {}), 1, true); err != nil {
		t.Fatalf("good snapshot rejected: %v", err)
	}
	for name, mut := range map[string]func(*experiment.BenchmarkSnapshot){
		"bbv instr":         func(b *experiment.BenchmarkSnapshot) { b.BBV.Instr++ },
		"hotspot instr":     func(b *experiment.BenchmarkSnapshot) { b.Hotspot.OverheadInstr++ },
		"baseline reconfig": func(b *experiment.BenchmarkSnapshot) { b.Baseline.Reconfigs = 1 },
		"ipc":               func(b *experiment.BenchmarkSnapshot) { b.Hotspot.IPC *= 1.01 },
		"l1d saving bbv":    func(b *experiment.BenchmarkSnapshot) { b.Derived.L1DSavingBBV += 0.01 },
		"l2 saving hot":     func(b *experiment.BenchmarkSnapshot) { b.Derived.L2SavingHot -= 0.01 },
		"slowdown hot":      func(b *experiment.BenchmarkSnapshot) { b.Derived.SlowdownHot += 1e-6 },
		"shape l1d": func(b *experiment.BenchmarkSnapshot) {
			b.Hotspot.L1DEnergyNJ = 85
			b.Derived.L1DSavingHot = saving(100, 85)
		},
		"shape l2": func(b *experiment.BenchmarkSnapshot) {
			b.Hotspot.L2EnergyNJ = 170
			b.Derived.L2SavingHot = saving(200, 170)
		},
		"shape vs bbv": func(b *experiment.BenchmarkSnapshot) {
			b.BBV.L1DEnergyNJ = 50
			b.Derived.L1DSavingBBV = saving(100, 50)
		},
		"shape slowdown": func(b *experiment.BenchmarkSnapshot) {
			b.Hotspot.Cycles = 2500
			b.Hotspot.IPC = 1010.0 / 2500
			b.Derived.SlowdownHot = slowdown(b.Baseline, b.Hotspot)
		},
	} {
		if err := checkSnapshot(snap(mut), 1, true); err == nil {
			t.Errorf("%s: wrong value passed", name)
		}
	}
	if err := checkSnapshot(snap(func(*experiment.BenchmarkSnapshot) {}), 2, true); err == nil {
		t.Error("missing benchmark passed")
	}

	if checkSameBytes("x", []byte(`{"a":1}`), []byte(`{"a":1}`)) != nil || checkSameBytes("x", []byte(`{"a":1}`), []byte(`{"a":2}`)) == nil {
		t.Error("checkSameBytes")
	}
	run := engineRun{Instr: 10, Cycles: 20, L1Misses: 1, L2Misses: 1, L1DEnergy: 1.5, L2Energy: 2.5}
	bad := run
	bad.L2Misses++
	if checkOracle("x", run, run) != nil || checkOracle("x", run, bad) == nil {
		t.Error("checkOracle")
	}

	good := func() *optimize.BenchResult {
		return &optimize.BenchResult{Benchmark: "x", Evaluated: 6,
			Best: optimize.CandidateResult{Cycles: 100, EnergyNJ: 2.5, EDP: 250, Feasible: true}}
	}
	if err := checkSearch(good(), 6); err != nil {
		t.Fatalf("good search rejected: %v", err)
	}
	for name, mut := range map[string]func(*optimize.BenchResult){
		"budget":     func(r *optimize.BenchResult) { r.Evaluated = 5 },
		"infeasible": func(r *optimize.BenchResult) { r.Best.Feasible = false },
		"edp":        func(r *optimize.BenchResult) { r.Best.EDP = 251 },
	} {
		r := good()
		mut(r)
		if checkSearch(r, 6) == nil {
			t.Errorf("search %s: wrong value passed", name)
		}
	}
	direct := &experiment.Result{Cycles: 100, L1DEnergyNJ: 1, L2EnergyNJ: 1.5}
	if err := checkReplayed(good(), direct); err != nil {
		t.Fatalf("good replay rejected: %v", err)
	}
	direct.Cycles++
	if checkReplayed(good(), direct) == nil {
		t.Error("checkReplayed: wrong cycles passed")
	}

	planned := map[string]uint64{"jobs_cached": 4, "store_hits": 2}
	if checkCounts("a", map[string]uint64{"jobs_cached": 4, "store_hits": 2}, planned) != nil ||
		checkCounts("a", map[string]uint64{"jobs_cached": 4, "store_hits": 1}, planned) == nil {
		t.Error("checkCounts")
	}
}

// TestResultLine pins the output contract: exactly the four keys, and
// every listed metric present with its unit.
func TestResultLine(t *testing.T) {
	line := resultLine(true, 3, 0, endToEnd, map[string]float64{"cold_cpu_ms": 1.5})
	var got map[string]json.RawMessage
	if err := json.Unmarshal([]byte(line), &got); err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got["correct"] == nil || got["attempted"] == nil || got["failed"] == nil || got["metrics"] == nil {
		t.Fatalf("keys: %s", line)
	}
	var ms map[string]struct {
		Value float64
		Unit  string
	}
	if err := json.Unmarshal(got["metrics"], &ms); err != nil {
		t.Fatal(err)
	}
	for n, u := range endToEnd {
		if ms[n].Unit != u {
			t.Errorf("%s unit %q, want %q", n, ms[n].Unit, u)
		}
	}
	if ms["cold_cpu_ms"].Value != 1.5 {
		t.Errorf("cold_cpu_ms = %v", ms["cold_cpu_ms"].Value)
	}
}
