package main

import (
	"bytes"
	"fmt"
	"math"

	"acedo/internal/experiment"
	"acedo/internal/optimize"
)

// The correctness checks below run outside the timed region. Each
// compares the program's output with a property the method must have,
// or with a value computed apart from the fast path — never with a
// stored copy of an earlier output. Each returns nil or the first
// violation it finds.

// near reports whether two floats agree to within rounding.
func near(a, b float64) bool {
	return a == b || math.Abs(a-b) <= 1e-12*math.Max(math.Abs(a), math.Abs(b))
}

// saving and slowdown restate the paper's derived metrics from the raw
// run fields, independently of the experiment package's own code.
func saving(base, scheme float64) float64 {
	if base == 0 {
		return 0
	}
	return (base - scheme) / base
}

func slowdown(base, scheme experiment.RunSnapshot) float64 {
	if base.Instr == 0 || scheme.Instr == 0 || base.Cycles == 0 {
		return 0
	}
	return (float64(scheme.Cycles)/float64(base.Instr))/(float64(base.Cycles)/float64(base.Instr)) - 1
}

// checkRuns checks one benchmark's three runs against the invariants of
// the method: adaptation never changes the instruction stream (BBV
// retires exactly the baseline's instructions, hotspot those plus its
// charged instrumentation), the baseline never reconfigures, and IPC is
// instructions over cycles.
func checkRuns(b experiment.BenchmarkSnapshot) error {
	base, bb, hot := b.Baseline, b.BBV, b.Hotspot
	if bb.Instr != base.Instr {
		return fmt.Errorf("%s: bbv instr %d != baseline instr %d", b.Name, bb.Instr, base.Instr)
	}
	if hot.Instr != base.Instr+hot.OverheadInstr {
		return fmt.Errorf("%s: hotspot instr %d != baseline %d + overhead %d",
			b.Name, hot.Instr, base.Instr, hot.OverheadInstr)
	}
	if base.Reconfigs != 0 {
		return fmt.Errorf("%s: baseline reconfigured %d times", b.Name, base.Reconfigs)
	}
	for _, r := range []struct {
		scheme string
		run    experiment.RunSnapshot
	}{{"baseline", base}, {"bbv", bb}, {"hotspot", hot}} {
		if r.run.Cycles == 0 || !near(r.run.IPC, float64(r.run.Instr)/float64(r.run.Cycles)) {
			return fmt.Errorf("%s/%s: ipc %v != instr/cycles %d/%d", b.Name, r.scheme, r.run.IPC, r.run.Instr, r.run.Cycles)
		}
	}
	return nil
}

// checkDerived checks every derived saving and slowdown against its
// value recomputed from the raw run fields.
func checkDerived(b experiment.BenchmarkSnapshot) error {
	d := b.Derived
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"l1d_saving_bbv", d.L1DSavingBBV, saving(b.Baseline.L1DEnergyNJ, b.BBV.L1DEnergyNJ)},
		{"l1d_saving_hot", d.L1DSavingHot, saving(b.Baseline.L1DEnergyNJ, b.Hotspot.L1DEnergyNJ)},
		{"l2_saving_bbv", d.L2SavingBBV, saving(b.Baseline.L2EnergyNJ, b.BBV.L2EnergyNJ)},
		{"l2_saving_hot", d.L2SavingHot, saving(b.Baseline.L2EnergyNJ, b.Hotspot.L2EnergyNJ)},
		{"slowdown_bbv", d.SlowdownBBV, slowdown(b.Baseline, b.BBV)},
		{"slowdown_hot", d.SlowdownHot, slowdown(b.Baseline, b.Hotspot)},
	} {
		if !near(c.got, c.want) {
			return fmt.Errorf("%s: %s %v != recomputed %v", b.Name, c.name, c.got, c.want)
		}
	}
	return nil
}

// checkShape checks the paper's headline result on one benchmark:
// hotspot saves more than 20% of L1D and L2 energy, beats BBV on L1D,
// and slows execution by at most 20%.
func checkShape(b experiment.BenchmarkSnapshot) error {
	d := b.Derived
	switch {
	case d.L1DSavingHot <= 0.2:
		return fmt.Errorf("%s: hotspot L1D saving %.3f <= 0.2", b.Name, d.L1DSavingHot)
	case d.L2SavingHot <= 0.2:
		return fmt.Errorf("%s: hotspot L2 saving %.3f <= 0.2", b.Name, d.L2SavingHot)
	case d.L1DSavingHot <= d.L1DSavingBBV:
		return fmt.Errorf("%s: hotspot L1D saving %.3f does not beat bbv %.3f", b.Name, d.L1DSavingHot, d.L1DSavingBBV)
	case d.SlowdownHot > 0.20:
		return fmt.Errorf("%s: hotspot slowdown %.3f > 0.20", b.Name, d.SlowdownHot)
	}
	return nil
}

// checkSnapshot applies the per-benchmark checks to a suite snapshot,
// the shape check only when asked (it holds at the default scale, not
// for the tiny programs of the short tests).
func checkSnapshot(s experiment.BenchSnapshot, benchmarks int, shape bool) error {
	if len(s.Benchmarks) != benchmarks {
		return fmt.Errorf("snapshot has %d benchmarks, want %d", len(s.Benchmarks), benchmarks)
	}
	for _, b := range s.Benchmarks {
		if err := checkRuns(b); err != nil {
			return err
		}
		if err := checkDerived(b); err != nil {
			return err
		}
		if shape {
			if err := checkShape(b); err != nil {
				return err
			}
		}
	}
	return nil
}

// checkSameBytes checks that a result served from a cache, the store or
// another node is byte-identical to the executed one.
func checkSameBytes(what string, want, got []byte) error {
	if !bytes.Equal(want, got) {
		return fmt.Errorf("%s: %d result bytes differ from the executed %d", what, len(got), len(want))
	}
	return nil
}

// engineRun is the observable outcome of one run: what the
// instruction-at-a-time oracle and the experiment layer must agree on.
type engineRun struct {
	Instr, Cycles       uint64
	L1Misses, L2Misses  uint64
	L1DEnergy, L2Energy float64
}

// checkOracle compares a run through the experiment layer with the
// instruction-at-a-time engine driven directly over the same prefix.
func checkOracle(name string, oracle, got engineRun) error {
	if oracle != got {
		return fmt.Errorf("%s: experiment.Run %+v != instruction-at-a-time engine %+v", name, got, oracle)
	}
	return nil
}

// checkSearch checks a search result: it spent exactly its budget, its
// best candidate is feasible, and that candidate's EDP is its energy
// times its cycles.
func checkSearch(r *optimize.BenchResult, budget int) error {
	if r.Evaluated != budget {
		return fmt.Errorf("%s: evaluated %d candidates, budget %d", r.Benchmark, r.Evaluated, budget)
	}
	if !r.Best.Feasible {
		return fmt.Errorf("%s: best candidate %v is infeasible (slowdown %.4f)", r.Benchmark, r.Best.Config, r.Best.Slowdown)
	}
	if !near(r.Best.EDP, r.Best.EnergyNJ*float64(r.Best.Cycles)) {
		return fmt.Errorf("%s: best EDP %v != energy %v x cycles %d", r.Benchmark, r.Best.EDP, r.Best.EnergyNJ, r.Best.Cycles)
	}
	return nil
}

// checkReplayed checks that a direct run of the best candidate's
// configuration reproduces the cycles and energy its replay reported.
func checkReplayed(r *optimize.BenchResult, direct *experiment.Result) error {
	energy := direct.L1DEnergyNJ + direct.L2EnergyNJ + direct.IQEnergyNJ
	if direct.Cycles != r.Best.Cycles || !near(energy, r.Best.EnergyNJ) {
		return fmt.Errorf("%s: direct run of best gives cycles %d energy %v, replay gave %d %v",
			r.Benchmark, direct.Cycles, energy, r.Best.Cycles, r.Best.EnergyNJ)
	}
	return nil
}

// checkCounts compares /metrics counters with the counts the workload
// planned.
func checkCounts(node string, got, want map[string]uint64) error {
	for _, k := range sortedKeys(want) {
		if got[k] != want[k] {
			return fmt.Errorf("node %s: /metrics %s = %d, planned %d", node, k, got[k], want[k])
		}
	}
	return nil
}
