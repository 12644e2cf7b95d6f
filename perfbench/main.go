// Command perfbench is acedo's end-to-end benchmark. It runs one named
// workload in a fresh process, checks the program's outputs, and
// prints every end-to-end metric (or, traced, every per-layer metric)
// as the last line of standard output:
//
//	perfbench -workload suite -seed 1 -seconds 25 -trace 0
//
// Workloads: suite (the acetables comparison, a cold pass then warm
// passes), optimize_search (a seeded GA configuration search) and
// service_jobs (two in-process acelabd nodes driven by closed-loop
// clients). README.md in this directory maps each layer metric to the
// end-to-end metric it should move.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

// workDir holds everything a run writes: temporary data directories
// and span files. It is relative to the checkout root the command runs
// from, and ignored by git.
const workDir = ".bench_build"

// endToEnd lists the end-to-end metrics every workload reports, with
// their units; BENCHMARK.json carries the same names.
var endToEnd = map[string]string{
	"setup_s":     "s",
	"max_rss_mb":  "MB",
	"cold_cpu_ms": "ms",
	"warm_cpu_ms": "ms",
}

// perLayer lists the per-layer metrics a traced run reports. A layer a
// workload does not exercise reads 0 there (README.md says which).
var perLayer = map[string]string{
	"workload.build_ms":            "ms",
	"vm.engine_minstr_per_s":       "Minstr/s",
	"vm.engine_noaos_minstr_per_s": "Minstr/s",
	"rtrace.record_s":              "s",
	"rtrace.record_minstr_per_s":   "Minstr/s",
	"rtrace.replay_minstr_per_s":   "Minstr/s",
	"rtrace.trace_mb":              "MB",
	"bbv.replay_s":                 "s",
	"core.replay_s":                "s",
	"experiment.trace_cache_mb":    "MB",
	"experiment.warm_rerecords":    "count",
	"experiment.idle_core_s":       "s",
	"optimize.record_s":            "s",
	"optimize.generation_ms":       "ms",
	"optimize.candidate_ms":        "ms",
	"optimize.search_minstr_per_s": "Minstr/s",
	"optimize.fresh_ratio":         "ratio",
	"optimize.fallbacks":           "count",
	"server.submit_ms":             "ms",
	"server.result_ms":             "ms",
	"server.exec_ms":               "ms",
	"server.overhead_ms":           "ms",
	"server.store_hit_job_p50_ms":  "ms",
	"server.cache_hits":            "count",
	"server.store_hits":            "count",
	"server.jobs_forwarded":        "count",
	"server.instr_simulated":       "count",
	"store.put_ms":                 "ms",
	"store.journal_accept_ms":      "ms",
	"store.get_ms":                 "ms",
	"store.recover_ms":             "ms",
	"cluster.forwarded_job_p50_ms": "ms",
	"cluster.forward_hop_ms":       "ms",
	"telemetry.events_mb":          "MB",
}

// outcome is what a workload hands back: operation counts, failed
// correctness checks, metric values by name, and informational lines.
type outcome struct {
	attempted, failed int
	problems          []string
	e2e               map[string]float64
	layer             map[string]float64
	notes             []string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records a failed correctness check (nil errors pass).
func (o *outcome) check(err error) {
	if err != nil {
		o.problems = append(o.problems, err.Error())
	}
}

// note records an informational line, printed before the result.
func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// runConfig is one invocation's parameters.
type runConfig struct {
	seed    int64
	seconds time.Duration
	tr      *tracer // nil = untraced
	dir     string  // scratch directory for data dirs
	par     int     // simulation goroutines and client connections
	// setupWindow is how long set-up is repeated for setup_s.
	setupWindow time.Duration
}

// workloads maps each workload name to its full-size entry point.
var workloads = map[string]func(runConfig) (*outcome, error){
	"suite":           func(c runConfig) (*outcome, error) { return runSuite(c, fullSuite()) },
	"optimize_search": func(c runConfig) (*outcome, error) { return runSearch(c, fullSearch()) },
	"service_jobs":    func(c runConfig) (*outcome, error) { return runService(c, fullService()) },
}

func main() {
	os.Exit(run())
}

func run() int {
	name := flag.String("workload", "", "workload to run: suite, optimize_search or service_jobs")
	seed := flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
	seconds := flag.Int("seconds", 25, "how long the measured phase runs (whole rounds, at least one)")
	traceMode := flag.Int("trace", 0, "1 = record spans around each layer call and print per-layer metrics")
	flag.Parse()

	fn, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traceMode != 0 && *traceMode != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: -workload {suite|optimize_search|service_jobs} -seed N -seconds N -trace {0|1}\n")
		return 2
	}
	host := fingerprint()
	hb, _ := json.Marshal(host)
	fmt.Printf("host %s\n", hb)

	scratch := filepath.Join(workDir, "tmp")
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	dir, err := os.MkdirTemp(scratch, *name+"-")
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(dir)

	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		dir:     dir,
		par:     runtime.NumCPU(),
		// One set-up takes milliseconds, and a shared virtual machine's
		// speed can swing for seconds at a time: only a median over
		// seconds is steady.
		setupWindow: 2 * time.Second,
	}
	if *traceMode == 1 {
		cfg.tr = newTracer()
	}
	out, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	out.e2e["max_rss_mb"] = maxRSSMB()
	for _, n := range out.notes {
		fmt.Println(n)
	}
	for _, p := range out.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	names, values := endToEnd, out.e2e
	if cfg.tr != nil {
		names, values = perLayer, out.layer
		traced := map[string]float64{}
		for k := range endToEnd {
			traced[k] = out.e2e[k]
		}
		tb, _ := json.Marshal(traced)
		fmt.Printf("traced end-to-end %s\n", tb)
		path := filepath.Join(workDir, "spans", fmt.Sprintf("%s-seed%d.json", *name, *seed))
		if err := cfg.tr.write(path, map[string]any{
			"workload": *name, "seed": *seed, "host": host, "traced_end_to_end": traced,
		}); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
		fmt.Printf("spans %s\n", path)
	}
	fmt.Println(resultLine(len(out.problems) == 0, out.attempted, out.failed, names, values))
	if len(out.problems) > 0 {
		return 1
	}
	return 0
}

// resultLine renders the final JSON line: every listed metric with its
// unit (a metric the workload did not produce reads 0).
func resultLine(correct bool, attempted, failed int, names map[string]string, values map[string]float64) string {
	type metric struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := make(map[string]metric, len(names))
	for n, u := range names {
		out[n] = metric{Value: values[n], Unit: u}
	}
	b, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, attempted, failed, out})
	return string(b)
}

// fingerprint identifies the host a figure was measured on.
func fingerprint() map[string]any {
	cpu := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				cpu = strings.TrimSpace(v)
				break
			}
		}
	}
	kernel := "unknown"
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		kernel = strings.TrimSpace(string(b))
	}
	return map[string]any{
		"cpu":        cpu,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"kernel":     kernel,
		"os_arch":    runtime.GOOS + "/" + runtime.GOARCH,
	}
}

// maxRSSMB returns the process's peak resident set in megabytes.
func maxRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
}

// sortedKeys returns a map's keys in order (stable notes and output).
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
