package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"sync/atomic"
	"time"

	"acedo/internal/experiment"
	"acedo/internal/server"
	"acedo/internal/server/cluster"
	"acedo/internal/workload"
)

// serviceSize fixes the service_jobs workload's inputs.
type serviceSize struct {
	specs    int    // specs per round, all owned by node A
	repeats  int    // hit and forwarded submissions per spec per round
	maxInstr uint64 // truncation of every job's runs
	prefix   uint64 // engine-oracle and engine-ladder prefix per program
}

// fullService: eight short truncated jobs per round, each repeated
// twice as a hit on A and twice through B.
func fullService() serviceSize {
	return serviceSize{specs: 8, repeats: 2, maxInstr: 150_000, prefix: 2_000_000}
}

// node is one in-process acelabd: a loopback listener whose handler
// forwards to the current server.Server, so the node can restart on the
// same data dir behind the same URL.
type node struct {
	id  string
	dir string
	hs  *httptest.Server
	srv atomic.Pointer[server.Server]
	cfg server.Config
}

func (n *node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s := n.srv.Load()
	if s == nil {
		http.Error(w, `{"error":"node starting"}`, http.StatusServiceUnavailable)
		return
	}
	s.ServeHTTP(w, r)
}

// start builds the node's server on its data dir (recovering whatever
// the dir holds) and returns how long server.New took.
func (n *node) start() (time.Duration, error) {
	t0 := time.Now()
	s, err := server.New(n.cfg)
	d := time.Since(t0)
	if err != nil {
		return d, err
	}
	n.srv.Store(s)
	return d, nil
}

// stop drains the node's server; the listener stays up.
func (n *node) stop() error {
	s := n.srv.Swap(nil)
	if s == nil {
		return nil
	}
	return s.Shutdown(nil)
}

// pair is the workload's two-node cluster.
type pair struct{ a, b *node }

// newPair starts nodes a and b, each on its own listener and temp data
// dir under base, peered with each other.
func newPair(base string, workers int) (*pair, error) {
	p := &pair{a: &node{id: "a"}, b: &node{id: "b"}}
	peers := map[string]string{}
	for _, n := range []*node{p.a, p.b} {
		dir, err := os.MkdirTemp(base, "node-"+n.id+"-")
		if err != nil {
			p.close()
			return nil, err
		}
		n.dir = dir
		n.hs = httptest.NewServer(n)
		peers[n.id] = n.hs.URL
	}
	for _, n := range []*node{p.a, p.b} {
		n.cfg = server.Config{
			Workers: workers,
			DataDir: n.dir,
			Cluster: &cluster.Config{NodeID: n.id, Peers: peers},
		}
		if _, err := n.start(); err != nil {
			p.close()
			return nil, err
		}
	}
	return p, nil
}

// close shuts both servers down, closes both listeners and removes both
// data dirs, returning the first error.
func (p *pair) close() error {
	var errs []error
	for _, n := range []*node{p.a, p.b} {
		if err := n.stop(); err != nil {
			errs = append(errs, err)
		}
		if n.hs != nil {
			n.hs.Close()
		}
		if n.dir != "" {
			errs = append(errs, os.RemoveAll(n.dir))
		}
	}
	// Peer requests between the nodes ride the default transport; drop
	// its idle connections so no connection goroutine outlives the pair.
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return errors.Join(errs...)
}

// jobSpec is one pool entry: its wire form and whether its event log is
// read.
type jobSpec struct {
	body   []byte
	events bool
	pair   string // benchmark and slot: specs with one pair simulate alike
}

// specPool draws one round's specs. The slot determines the job's
// shape (four comparisons, two scheme lists, two comparisons with
// event logs); the seed picks each slot's benchmark. The instruction
// cap is offset by the slot, so a round's specs are distinct. Across
// rounds the same benchmark, slot and cap recur, so the process-wide
// trace cache holds at most one trace per pair (and the process's
// memory does not grow with the number of rounds): a cold job records
// the first time its pair comes up and replays that trace afterwards.
// Every spec is owned by node A: the deadline (which changes the job's
// identity but not its simulation) is stepped until A owns it.
func specPool(rng *rand.Rand, ring *cluster.Ring, sz serviceSize) ([]jobSpec, error) {
	suite := workload.Suite()
	out := make([]jobSpec, sz.specs)
	for i := range out {
		spec := server.JobSpec{
			Benchmarks: []string{suite[rng.Intn(len(suite))].Name},
			MaxInstr:   sz.maxInstr + uint64(i),
		}
		switch i % 4 {
		case 2:
			spec.Schemes = [][]string{{"hotspot"}, {"baseline", "hotspot"}}[i/4%2]
		case 3:
			spec.Events = true
		}
		for k := int64(0); ; k++ {
			if k == 64 {
				return nil, errors.New("no spec owned by node a in 64 tries")
			}
			spec.DeadlineMS = 600_000 + k
			norm, err := spec.Normalize()
			if err != nil {
				return nil, err
			}
			hash, err := server.SpecHash(norm)
			if err != nil {
				return nil, err
			}
			if ring.Owner(hash) == "a" {
				break
			}
		}
		b, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		out[i] = jobSpec{body: b, events: spec.Events, pair: fmt.Sprintf("%s/%d", spec.Benchmarks[0], i)}
	}
	return out, nil
}

// client is a closed-loop acelab client: it submits a job and waits for
// its result before sending anything else.
type client struct {
	hc *http.Client
	tr *tracer
}

// jobResult is one job as the client saw it.
type jobResult struct {
	result  []byte
	latency time.Duration
	cpu     time.Duration // process CPU time over the latency
	cached  bool
	events  int // event-log bytes read
	wallMS  float64
	submit  time.Duration
	fetch   time.Duration
}

// status is the part of a JobStatus the client reads.
type status struct {
	ID     string  `json:"id"`
	Cached bool    `json:"cached"`
	WallMS float64 `json:"wall_ms"`
}

func (c *client) do(method, url string, body []byte) ([]byte, int, error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return b, resp.StatusCode, err
}

// run submits one spec to base and waits for its result: an executing
// job is followed through its event stream (which ends when the job
// does), then its result is fetched. Latency, and the CPU time the
// whole process (client and both nodes) spends over it, run from the
// submit to the last result byte.
func (c *client) run(base string, spec jobSpec, parent *span) (jobResult, error) {
	var jr jobResult
	t0 := stampNow()
	sp := c.tr.begin("server.submit", parent)
	body, code, err := c.do("POST", base+"/v1/jobs", spec.body)
	jr.submit = time.Since(t0.wall)
	sp.end()
	if err != nil {
		return jr, err
	}
	if code != http.StatusOK && code != http.StatusAccepted {
		return jr, fmt.Errorf("submit: %d %s", code, bytes.TrimSpace(body))
	}
	var st status
	if err := json.Unmarshal(body, &st); err != nil {
		return jr, fmt.Errorf("submit: %w", err)
	}
	jr.cached = st.Cached
	if code == http.StatusAccepted {
		sp = c.tr.begin("server.wait", parent)
		ev, code, err := c.do("GET", base+"/v1/jobs/"+st.ID+"/events", nil)
		sp.end()
		if err != nil || code != http.StatusOK {
			return jr, fmt.Errorf("events %s: %d %v", st.ID, code, err)
		}
		jr.events = len(ev)
	}
	t1 := time.Now()
	sp = c.tr.begin("server.result", parent)
	res, code, err := c.do("GET", base+"/v1/jobs/"+st.ID+"/result", nil)
	sp.end()
	jr.latency, jr.cpu = t0.since()
	jr.fetch = time.Since(t1)
	if err != nil || code != http.StatusOK {
		return jr, fmt.Errorf("result %s: %d %v", st.ID, code, err)
	}
	jr.result = res
	if c.tr != nil && !st.Cached {
		// Traced only, after the latency is taken: the job's own
		// execution time from its status document.
		b, _, err := c.do("GET", base+"/v1/jobs/"+st.ID, nil)
		if err == nil && json.Unmarshal(b, &st) == nil {
			jr.wallMS = st.WallMS
		}
	}
	return jr, nil
}

// call is one planned submission: which spec, to which node.
type call struct {
	spec int
	node *node
	kind string
}

// phase runs the calls one after another, each waiting for its result,
// and returns each call's outcome in call order.
func (c *client) phase(calls []call, specs []jobSpec, root *span) ([]jobResult, []error) {
	out := make([]jobResult, len(calls))
	errs := make([]error, len(calls))
	for i, cl := range calls {
		sp := c.tr.begin("job."+cl.kind, root)
		out[i], errs[i] = c.run(cl.node.hs.URL, specs[cl.spec], sp)
		sp.end()
	}
	return out, errs
}

// metricsOf reads a node's /metrics counters.
func metricsOf(c *client, n *node) (map[string]uint64, error) {
	b, code, err := c.do("GET", n.hs.URL+"/metrics", nil)
	if err != nil || code != http.StatusOK {
		return nil, fmt.Errorf("metrics %s: %d %v", n.id, code, err)
	}
	var m server.Metrics
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, err
	}
	return map[string]uint64{
		"jobs_submitted":        m.JobsSubmitted,
		"jobs_completed":        m.JobsCompleted,
		"jobs_failed":           m.JobsFailed,
		"jobs_cached":           m.JobsCached,
		"cache_hits":            m.CacheHits,
		"store_hits":            m.StoreHits,
		"jobs_forwarded":        m.JobsForwarded,
		"jobs_forward_received": m.JobsForwardReceived,
		"forward_failures":      m.ForwardFailures,
		"instr_simulated":       m.InstrSimulated,
	}, nil
}

// settled reads a node's /metrics once it counts every one of the
// round's cold jobs as completed. A server publishes a job as done (its
// event stream ends, its result is served) a moment before it counts
// the job in /metrics, so a read taken as the last client returns can
// miss that job's instructions.
func settled(c *client, n *node, completed uint64) (map[string]uint64, error) {
	deadline := time.Now().Add(5 * time.Second)
	for {
		m, err := metricsOf(c, n)
		if err != nil || m["jobs_completed"] >= completed || time.Now().After(deadline) {
			return m, err
		}
		time.Sleep(time.Millisecond)
	}
}

// samples collects the latencies and layer timings of a run's rounds.
type samples struct {
	cold, hit, stored, forwarded []float64
	coldCPU, hitCPU              []float64
	submit, fetchHit, exec, over []float64
	restart                      []float64
	eventBytes                   int
	cacheHits, storeHits         uint64
	forwards, instr              uint64
	docs                         [][]byte
	byPair                       map[string][]byte // first cold result per pair
}

// runService runs the service_jobs workload: rounds of (1) cold
// submissions to A, (2) repeats to A (cache hits) and to B (forwarded
// to A), (3) a restart of A on the same data dir and a resubmission of
// every spec (store hits), each round on a fresh pair of nodes, until
// the run time is spent.
func runService(c runConfig, sz serviceSize) (*outcome, error) {
	o := newOutcome()
	rng := rand.New(rand.NewSource(c.seed))
	// One closed-loop client: with nproc of them, latency minus the
	// job's own execution was half of a cold job (the client and the
	// handlers waited behind the daemon's nproc CPU-bound workers).
	tp := &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
	defer tp.CloseIdleConnections()
	cl := &client{hc: &http.Client{Transport: tp}, tr: c.tr}

	// Each round starts and stops its own pair of nodes inside the
	// measured phase, so set-up holds no node start.
	if err := measureSetup(o, c.setupWindow, nil); err != nil {
		return nil, err
	}

	s := samples{byPair: map[string][]byte{}}
	start := time.Now()
	for round := 0; round == 0 || time.Since(start) < c.seconds; round++ {
		if err := serviceRound(c, o, cl, rng, sz, round, &s); err != nil {
			return nil, err
		}
	}
	tp.CloseIdleConnections()
	o.check(oracleChecks(experiment.OptionsAtScale(10), oraclePrefix(c.seed, sz.prefix)))

	o.e2e["cold_cpu_ms"] = median(s.coldCPU)
	o.e2e["warm_cpu_ms"] = median(s.hitCPU)
	o.note("service_jobs: CPU per job p50: cold %.3f ms, hit %.3f ms", median(s.coldCPU), median(s.hitCPU))
	for _, x := range []struct {
		name string
		xs   []float64
	}{{"cold", s.cold}, {"hit", s.hit}, {"store-hit", s.stored}, {"forwarded", s.forwarded}} {
		line := fmt.Sprintf("service_jobs: %s p50 %.3f ms (n=%d)", x.name, median(x.xs), len(x.xs))
		if label, v, ok := tails(x.xs); ok {
			line += fmt.Sprintf(", %s %.3f ms", label, v)
		}
		o.note("%s", line)
	}

	if c.tr != nil {
		l := o.layer
		l["server.submit_ms"] = median(s.submit)
		l["server.result_ms"] = median(s.fetchHit)
		l["server.exec_ms"] = median(s.exec)
		l["server.overhead_ms"] = median(s.over)
		l["server.store_hit_job_p50_ms"] = median(s.stored)
		l["server.cache_hits"] = float64(s.cacheHits)
		l["server.store_hits"] = float64(s.storeHits)
		l["server.jobs_forwarded"] = float64(s.forwards)
		l["server.instr_simulated"] = float64(s.instr)
		l["store.recover_ms"] = median(s.restart)
		l["cluster.forwarded_job_p50_ms"] = median(s.forwarded)
		l["cluster.forward_hop_ms"] = median(s.forwarded) - median(s.hit)
		l["telemetry.events_mb"] = float64(s.eventBytes) / 1e6
		if err := engineLadder(o, c.tr, workload.Suite(), experiment.OptionsAtScale(10), sz.prefix); err != nil {
			return nil, err
		}
		if err := storeLadder(o, c.tr, c.dir, s.docs, false); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// serviceRound runs one round on a fresh pair of nodes and tears the
// pair down again, whatever happens.
func serviceRound(c runConfig, o *outcome, cl *client, rng *rand.Rand, sz serviceSize, round int, s *samples) (err error) {
	p, err := newPair(c.dir, c.par)
	if err != nil {
		return err
	}
	defer func() { err = errors.Join(err, p.close()) }()
	specs, err := specPool(rng, p.a.srv.Load().ClusterRing(), sz)
	if err != nil {
		return err
	}
	root := c.tr.begin("service.round", nil)
	defer root.end()

	// Phase 1: cold submissions to A.
	var calls []call
	for i := range specs {
		calls = append(calls, call{i, p.a, "cold"})
	}
	res, errs := cl.phase(calls, specs, root)
	cold := make([][]byte, len(specs))
	for i, r := range res {
		o.attempted++
		if errs[i] != nil {
			o.failed++
			o.note("service_jobs: round %d cold job %d failed: %v", round, i, errs[i])
			continue
		}
		cold[i] = r.result
		// A pair's first cold job recorded its trace; later ones replay
		// it (or fall back to direct execution). All give the same bytes.
		if first, ok := s.byPair[specs[i].pair]; ok {
			o.check(checkSameBytes(fmt.Sprintf("round %d cold %s result against its first execution", round, specs[i].pair), first, r.result))
		} else {
			s.byPair[specs[i].pair] = r.result
		}
		s.cold = append(s.cold, ms(r.latency))
		s.coldCPU = append(s.coldCPU, ms(r.cpu))
		s.submit = append(s.submit, ms(r.submit))
		s.eventBytes += r.events
		if specs[i].events && r.events == 0 {
			o.check(fmt.Errorf("round %d job %d: events requested but the event log is empty", round, i))
		}
		if r.cached {
			o.check(fmt.Errorf("round %d cold job %d answered from cache", round, i))
		}
		if c.tr != nil {
			s.exec = append(s.exec, r.wallMS)
			s.over = append(s.over, ms(r.latency)-r.wallMS)
		}
		if len(s.docs) < storeProbes {
			s.docs = append(s.docs, r.result)
		}
	}
	mA, err := settled(cl, p.a, uint64(len(specs)))
	if err != nil {
		return err
	}
	instrCold := mA["instr_simulated"]

	// Phase 2: repeats to A (hits) and to B (forwarded to A).
	calls = calls[:0]
	for k := 0; k < sz.repeats; k++ {
		for i := range specs {
			calls = append(calls, call{i, p.a, "hit"}, call{i, p.b, "forwarded"})
		}
	}
	res, errs = cl.phase(calls, specs, root)
	for i, r := range res {
		o.attempted++
		if errs[i] != nil {
			o.failed++
			o.note("service_jobs: round %d %s job failed: %v", round, calls[i].kind, errs[i])
			continue
		}
		o.check(checkSameBytes(fmt.Sprintf("round %d %s result", round, calls[i].kind), cold[calls[i].spec], r.result))
		s.submit = append(s.submit, ms(r.submit))
		if calls[i].kind == "hit" {
			s.hit = append(s.hit, ms(r.latency))
			s.hitCPU = append(s.hitCPU, ms(r.cpu))
			s.fetchHit = append(s.fetchHit, ms(r.fetch))
		} else {
			s.forwarded = append(s.forwarded, ms(r.latency))
		}
	}
	n, h := uint64(len(specs)), uint64(len(specs)*sz.repeats)
	if mA, err = metricsOf(cl, p.a); err != nil {
		return err
	}
	mB, err := metricsOf(cl, p.b)
	if err != nil {
		return err
	}
	if mA["instr_simulated"] != instrCold {
		o.check(fmt.Errorf("round %d: instr_simulated moved from %d to %d on cache hits", round, instrCold, mA["instr_simulated"]))
	}
	o.check(checkCounts("a", mA, map[string]uint64{
		"jobs_submitted": n + 2*h, "jobs_completed": n, "jobs_failed": 0, "jobs_cached": 2 * h,
		"cache_hits": 2 * h, "jobs_forward_received": h, "jobs_forwarded": 0,
	}))
	o.check(checkCounts("b", mB, map[string]uint64{
		"jobs_submitted": 0, "jobs_forwarded": h, "forward_failures": 0, "instr_simulated": 0,
	}))
	s.cacheHits += mA["cache_hits"]
	s.forwards += mB["jobs_forwarded"]
	s.instr += instrCold

	// Phase 3: restart A on the same data dir; every spec is a store hit.
	if err := p.a.stop(); err != nil {
		return err
	}
	sp := c.tr.begin("store.recover", root)
	d, err := p.a.start()
	sp.end()
	if err != nil {
		return err
	}
	s.restart = append(s.restart, ms(d))
	calls = calls[:0]
	for i := range specs {
		calls = append(calls, call{i, p.a, "stored"})
	}
	res, errs = cl.phase(calls, specs, root)
	for i, r := range res {
		o.attempted++
		if errs[i] != nil {
			o.failed++
			o.note("service_jobs: round %d store-hit job %d failed: %v", round, i, errs[i])
			continue
		}
		o.check(checkSameBytes(fmt.Sprintf("round %d store-hit result", round), cold[i], r.result))
		s.stored = append(s.stored, ms(r.latency))
		s.submit = append(s.submit, ms(r.submit))
	}
	if mA, err = metricsOf(cl, p.a); err != nil {
		return err
	}
	o.check(checkCounts("a (restarted)", mA, map[string]uint64{
		"jobs_submitted": n, "jobs_cached": n, "store_hits": n, "jobs_completed": 0, "instr_simulated": 0,
	}))
	s.storeHits += mA["store_hits"]
	return nil
}
