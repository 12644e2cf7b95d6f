package main

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"acedo/internal/experiment"
	"acedo/internal/machine"
	"acedo/internal/program"
	"acedo/internal/server"
	"acedo/internal/server/store"
	"acedo/internal/vm"
	"acedo/internal/workload"
)

// buildAll builds every program of the given specs (the workload
// layer's part of set-up).
func buildAll(specs []workload.Spec) ([]*program.Program, error) {
	progs := make([]*program.Program, len(specs))
	for i, s := range specs {
		p, err := s.Build()
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", s.Name, err)
		}
		progs[i] = p
	}
	return progs, nil
}

// directEngine runs prog on a fresh machine for at most prefix
// instructions in the given engine mode, with the profiler on or off
// and no recorder, returning the outcome and the host time of Run.
func directEngine(prog *program.Program, opt experiment.Options, prefix uint64, mode vm.ExecMode, profiler bool) (engineRun, time.Duration, error) {
	mach, err := machine.New(opt.Machine)
	if err != nil {
		return engineRun{}, 0, err
	}
	vp := opt.VM
	if !profiler {
		vp.SampleInterval = 0
	}
	eng, err := vm.NewEngine(prog, mach, vm.NewAOS(vp, mach, prog))
	if err != nil {
		return engineRun{}, 0, err
	}
	eng.SetMode(mode)
	t0 := time.Now()
	if err := eng.Run(prefix); err != nil && !errors.Is(err, vm.ErrBudget) {
		return engineRun{}, 0, fmt.Errorf("engine %s: %w", prog.Name, err)
	}
	d := time.Since(t0)
	snap := mach.Snapshot()
	bd := mach.Timing.Breakdown()
	return engineRun{
		Instr: snap.Instr, Cycles: snap.Cycles,
		L1Misses: bd.L1Misses, L2Misses: bd.L2Misses,
		L1DEnergy: snap.L1DnJ, L2Energy: snap.L2nJ,
	}, d, nil
}

// setupReps is the least number of times a run repeats its set-up;
// setup_s is the median.
const setupReps = 15

// measureSetup times the workload's set-up: building every suite
// program (the inputs of the engine oracle every workload checks, and
// of every workload) plus the workload's own fixture, if any.
// Constructing each run's machine and engine as well made setup_s
// mostly page faults, whose cost on a shared virtual machine swung
// 2× between runs.
func measureSetup(o *outcome, window time.Duration, fixture func() error) error {
	var builds []float64
	setup, err := medianSetup(window, setupReps, func() error {
		t0 := cpuNow()
		_, err := buildAll(workload.Suite())
		builds = append(builds, ms(cpuNow()-t0))
		if err != nil || fixture == nil {
			return err
		}
		return fixture()
	})
	if err != nil {
		return err
	}
	o.e2e["setup_s"] = setup
	o.layer["workload.build_ms"] = median(builds)
	return nil
}

// oraclePrefix draws the engine oracle's prefix from the seed: between
// a quarter and three eighths of the ladder prefix.
func oraclePrefix(seed int64, prefix uint64) uint64 {
	return prefix/4 + uint64(rand.New(rand.NewSource(seed)).Int63n(int64(prefix/8)+1))
}

// oracleChecks runs each suite program's prefix through experiment.Run
// (the block-batched engine) and through the instruction-at-a-time
// engine driven directly, and checks that both agree.
func oracleChecks(opt experiment.Options, prefix uint64) error {
	o := opt
	o.MaxInstr = prefix
	for _, s := range workload.Suite() {
		prog, err := s.Build()
		if err != nil {
			return err
		}
		want, _, err := directEngine(prog, opt, prefix, vm.ModeBaseline, true)
		if err != nil {
			return err
		}
		r, err := experiment.Run(s, experiment.SchemeBaseline, o)
		if err != nil {
			return err
		}
		got := engineRun{
			Instr: r.Instr, Cycles: r.Cycles,
			L1Misses: r.Breakdown.L1Misses, L2Misses: r.Breakdown.L2Misses,
			L1DEnergy: r.L1DEnergyNJ, L2Energy: r.L2EnergyNJ,
		}
		if err := checkOracle(s.Name, want, got); err != nil {
			return err
		}
	}
	return nil
}

// engineLadder measures the bare engine (vm.NewEngine + Run, no
// recorder) on a fixed prefix of every program, with the profiler on
// and off, in simulated Minstr per host second. The two settings
// alternate program by program, so a slow spell of the host does not
// land on one of them only.
func engineLadder(o *outcome, tr *tracer, specs []workload.Spec, opt experiment.Options, prefix uint64) error {
	modes := []struct {
		metric   string
		profiler bool
		instr    uint64
		busy     time.Duration
	}{{metric: "vm.engine_minstr_per_s", profiler: true}, {metric: "vm.engine_noaos_minstr_per_s"}}
	for _, s := range specs {
		for i := range modes {
			m := &modes[i]
			prog, err := s.Build()
			if err != nil {
				return err
			}
			sp := tr.begin(m.metric, nil)
			r, d, err := directEngine(prog, opt, prefix, vm.ModeOptimized, m.profiler)
			sp.set("instr", float64(r.Instr))
			sp.end()
			if err != nil {
				return err
			}
			m.instr += r.Instr
			m.busy += d
		}
	}
	for _, m := range modes {
		o.layer[m.metric] = float64(m.instr) / 1e6 / secs(m.busy)
	}
	return nil
}

// storeProbes is the least number of calls each store timing rests on.
const storeProbes = 16

// storeLadder times the durable store's calls on the workload's own
// result documents in a scratch directory: store.Put (write, fsync,
// rename), Journal.Accept (append, fsync) and store.Get, each a median
// over the documents; and, unless the workload measures its own
// restarts, server.New recovering that populated directory. Every Get
// must return the bytes that were Put.
func storeLadder(o *outcome, tr *tracer, dir string, docs [][]byte, recoverToo bool) error {
	if len(docs) == 0 {
		return errors.New("store ladder: no documents")
	}
	st, err := store.Open(filepath.Join(dir, "results"), "perfbench", nil)
	if err != nil {
		return err
	}
	j, _, err := store.OpenJournal(filepath.Join(dir, "probe-journal"), nil)
	if err != nil {
		return err
	}
	defer j.Close()
	// At least storeProbes calls each, cycling through the documents
	// under distinct hashes, so the medians rest on enough samples.
	for i := 0; len(docs) < storeProbes; i++ {
		docs = append(docs, docs[i])
	}
	var puts, accepts, gets []float64
	hashes := make([]string, len(docs))
	for i, doc := range docs {
		h := sha256.Sum256(append([]byte(fmt.Sprint(i)), doc...))
		hashes[i] = hex.EncodeToString(h[:])
		sp := tr.begin("store.put", nil)
		t0 := time.Now()
		err := st.Put(hashes[i], store.Entry{Result: doc})
		puts = append(puts, ms(time.Since(t0)))
		sp.set("bytes", float64(len(doc)))
		sp.end()
		if err != nil {
			return err
		}
		sp = tr.begin("store.journal_accept", nil)
		t0 = time.Now()
		err = j.Accept(hashes[i], doc)
		accepts = append(accepts, ms(time.Since(t0)))
		sp.end()
		if err != nil {
			return err
		}
	}
	for i, h := range hashes {
		sp := tr.begin("store.get", nil)
		t0 := time.Now()
		e, ok, err := st.Get(h)
		gets = append(gets, ms(time.Since(t0)))
		sp.end()
		if err != nil || !ok {
			return fmt.Errorf("store ladder: get %s: ok=%v err=%v", h[:12], ok, err)
		}
		if err := checkSameBytes("store get", docs[i], e.Result); err != nil {
			return err
		}
	}
	o.layer["store.put_ms"] = median(puts)
	o.layer["store.journal_accept_ms"] = median(accepts)
	o.layer["store.get_ms"] = median(gets)
	if recoverToo {
		sp := tr.begin("store.recover", nil)
		t0 := time.Now()
		srv, err := server.New(server.Config{DataDir: dir, Workers: 1})
		o.layer["store.recover_ms"] = ms(time.Since(t0))
		sp.end()
		if err != nil {
			return err
		}
		if err := srv.Shutdown(nil); err != nil {
			return err
		}
	}
	return nil
}
