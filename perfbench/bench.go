package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tempo/internal/service"
)

// setups is how many times a run launches tempod and creates the
// clusters; setup_s is their median.
const setups = 3

// restarts is how many SIGKILL-and-restart cycles service.recover_s is
// the median of.
const restarts = 9

// lagBound is the generator lateness (p99) beyond which a paced phase is
// invalid: its latencies would measure the generator, not tempod.
const lagBound = 15 * time.Millisecond

// timed is the outcome of one timed run against a tempod child process.
type timed struct {
	metrics map[string]metric
	// layer holds the per-layer figures only a real tempod run gives.
	layer    map[string]metric
	attempts int
	failed   int
	// mismatches lists correctness failures; any entry fails the run.
	mismatches []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// plan is a workload's clusters and request sequence for one seed.
type plan struct {
	w      *workload
	phases [2][]*cluster // capacity, paced
	// segs[i][s] is segment s of phase i: the units of its share of the
	// phase's clusters; segReqs counts their requests.
	segs    [2][segments][]unit
	segReqs [2][segments]int
}

var phaseNames = [2]string{"cap", "paced"}

// segments is how many alternating slices the timed phases run in:
// capacity, paced, capacity, paced, ... Each slice drives its own share of
// the clusters, so slow drift in the machine's speed meets both phases
// alike, and the capacity figures are medians over the slices.
const segments = 3

// segment returns the cluster index range [lo, hi) of segment s of n.
func segment(n, s int) (lo, hi int) { return s * n / segments, (s + 1) * n / segments }

func newPlan(w *workload, seed int64, seconds float64) (*plan, error) {
	base, err := w.spec()
	if err != nil {
		return nil, err
	}
	p := &plan{w: w}
	paced := w.clusters(seconds)
	for i, n := range []int{max(segments, int(float64(paced)*w.capClusters)), paced} {
		// Only the last segment leaves clusters standing for the tail.
		survives := func(ci int) bool {
			lo, hi := segment(n, segments-1)
			return ci >= lo && w.survivor(ci-lo, hi-lo)
		}
		cs, err := w.newClusters(base, phaseNames[i], i, n, seed, survives)
		if err != nil {
			return nil, err
		}
		p.phases[i] = cs
		for s := range p.segs[i] {
			lo, hi := segment(n, s)
			units, reqs, err := w.buildUnits(cs[lo:hi], 0, w.rounds, mix(seed, int64(i), int64(s)))
			if err != nil {
				return nil, err
			}
			for k := range units {
				units[k].cluster += lo
			}
			p.segs[i][s], p.segReqs[i][s] = units, reqs
		}
	}
	return p, nil
}

// survivors returns phase i's clusters that outlive the timed phases.
func (p *plan) survivors(i int) []*cluster {
	var out []*cluster
	for _, c := range p.phases[i] {
		if c.survivor {
			out = append(out, c)
		}
	}
	return out
}

func (p *plan) allClusters() []*cluster {
	return append(append([]*cluster{}, p.phases[0]...), p.phases[1]...)
}

func newClients(base string) []*client {
	cs := make([]*client, runtime.NumCPU())
	for i := range cs {
		cs[i] = newClient(base)
	}
	return cs
}

func closeClients(cs []*client) {
	for _, c := range cs {
		c.close()
	}
}

// parallel runs fn(0..n-1) on one goroutine per client and returns the
// first error.
func parallel(clients []*client, n int, fn func(c *client, i int) error) error {
	var next atomic.Int64
	var mu sync.Mutex
	var first error
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < n; i = int(next.Add(1)) - 1 {
				if err := fn(c, i); err != nil {
					mu.Lock()
					if first == nil {
						first = err
					}
					mu.Unlock()
					return
				}
			}
		}(c)
	}
	wg.Wait()
	return first
}

// setup launches tempod and creates every cluster of the plan.
func setup(bin, data string, cs []*cluster) (*server, time.Duration, error) {
	if data != "" {
		if err := os.RemoveAll(data); err != nil {
			return nil, 0, err
		}
	}
	start := time.Now()
	srv, err := startServer(bin, data)
	if err != nil {
		return nil, 0, err
	}
	clients := newClients(srv.url())
	defer closeClients(clients)
	err = parallel(clients, len(cs), func(c *client, i int) error {
		_, err := c.ok("POST", "/v1/clusters", cs[i].create)
		return err
	})
	if err != nil {
		srv.kill()
		return nil, 0, fmt.Errorf("creating clusters: %w", err)
	}
	return srv, time.Since(start), nil
}

// runTimed executes one workload end to end against a tempod child.
func runTimed(w *workload, seed int64, seconds float64, bin, work string) (*timed, error) {
	p, err := newPlan(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	data := ""
	if w.durable {
		data = filepath.Join(work, "data")
	}
	all := p.allClusters()
	var setupS []float64
	var srv *server
	for i := 0; i < setups; i++ {
		s, d, err := setup(bin, data, all)
		if err != nil {
			return nil, err
		}
		setupS = append(setupS, d.Seconds())
		if i < setups-1 {
			s.kill()
		} else {
			srv = s
		}
	}
	defer func() { srv.kill() }()

	out := &timed{metrics: map[string]metric{}, layer: map[string]metric{}}
	clients := newClients(srv.url())
	// keep retains the sampled clusters' read responses and, for windowed
	// workloads, every final report: those clusters are deleted in-phase.
	keep := func(phase int) func(u *unit, r *request) bool {
		return func(u *unit, r *request) bool {
			return r.kind == kReport && w.window > 0 ||
				r.kind != kTick && r.kind != kDelete && sampled(seed, phase, u.cluster)
		}
	}

	// The timed phases, in alternating segments: capacity (closed loop,
	// nproc clients), then paced (open loop at the workload's fixed rate).
	var runs [2][]*phaseRun
	var tput, cpu []float64
	cliCPU0, err := procCPU(0)
	if err != nil {
		return nil, err
	}
	for s := 0; s < segments; s++ {
		srvCPU0, err := procCPU(srv.pid())
		if err != nil {
			return nil, err
		}
		run := runPhase(clients, p.segs[0][s], p.segReqs[0][s], schedule{}, keep(0))
		srvCPU1, err := procCPU(srv.pid())
		if err != nil {
			return nil, err
		}
		ticks := statsOf(run).ticks
		tput = append(tput, float64(ticks)/run.elapsed.Seconds())
		cpu = append(cpu, ms(srvCPU1-srvCPU0)/float64(max(ticks, 1)))
		runs[0] = append(runs[0], run)
		runs[1] = append(runs[1], runPhase(clients, p.segs[1][s], p.segReqs[1][s], newSchedule(w.rate), keep(1)))
	}
	cliCPU1, err := procCPU(0)
	if err != nil {
		return nil, err
	}
	closeClients(clients)
	capSt, pacedSt := statsOf(runs[0]...), statsOf(runs[1]...)

	out.attempts = capSt.attempts + pacedSt.attempts
	out.failed = capSt.failed + pacedSt.failed
	for _, st := range []phaseStats{capSt, pacedSt} {
		if st.firstErr != nil {
			out.mismatches = append(out.mismatches, "request failed: "+st.firstErr.Error())
		}
	}
	ticks := capSt.ticks + pacedSt.ticks

	set := func(m map[string]metric, name string, v float64, unit string) { m[name] = metric{v, unit} }
	set(out.metrics, "setup_s", median(setupS), "s")
	set(out.metrics, "ticks_per_s", median(tput), "1/s")
	set(out.metrics, "server_cpu_ms_per_tick", median(cpu), "ms")
	lag := summarize(pacedSt.lags)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d rounds per cluster; capacity %d clusters at %.1f ticks/s per segment, paced %d clusters at %.0f req/s\n",
		w.name, seed, w.rounds, len(p.phases[0]), tput, len(p.phases[1]), w.rate)
	if lag.tailP == 0 || lag.p99 > lagBound {
		out.mismatches = append(out.mismatches, fmt.Sprintf(
			"paced phase invalid: generator lag p99 %.3f ms over %d idle sends exceeds the %v bound", ms(lag.p99), lag.n, lagBound))
	}
	set(out.layer, "client.lag_p99_ms", ms(lag.p99), "ms")
	if ticks > 0 {
		set(out.layer, "client.cpu_ms_per_tick", ms(cliCPU1-cliCPU0)/float64(ticks), "ms")
	}
	for _, class := range []string{"tick", "read", "whatif"} {
		l := summarize(pacedSt.byClass[class])
		fmt.Fprintf(os.Stderr, "perfbench:   paced %-6s n=%-6d p50 %.3f ms, p90 %.3f ms, p99 %.3f ms; highest percentile with 10 samples beyond: p%.2f = %.3f ms\n",
			class, l.n, ms(l.p50), ms(l.p90), ms(l.p99), l.tailP, ms(l.tail))
		if l.tailP < 99 {
			out.mismatches = append(out.mismatches, fmt.Sprintf("paced phase has %d %s samples, too few for a p99 with ten beyond it", l.n, class))
		}
		set(out.metrics, class+"_p50_ms", ms(l.p50), "ms")
		// The p99s are per-layer figures, not gated end-to-end metrics: on a
		// shared 2-vCPU host they follow the host's own stalls, and
		// fleet-small's moved by more than a third of their median from
		// seed to seed.
		set(out.layer, "client."+class+"_p99_ms", ms(l.p99), "ms")
	}

	if err := readServerMetrics(srv, out); err != nil {
		return nil, err
	}
	clients = newClients(srv.url())
	defer closeClients(clients)
	// Per cluster, indexed like all: the last report body kept in-phase,
	// the acknowledged ticks, and whether an in-phase delete removed it.
	reports := make([][]byte, len(all))
	acked := make([]int, len(all))
	deleted := make([]bool, len(all))
	for i, run := range append(runs[0], runs[1]...) {
		off := i / segments * len(p.phases[0])
		for _, u := range run.units {
			for j, r := range u.reqs {
				res := run.res[u.first+j]
				switch {
				case res.err != nil:
				case r.kind == kTick:
					acked[off+u.cluster]++
				case r.kind == kDelete:
					deleted[off+u.cluster] = true
				case r.kind == kReport && res.body != nil:
					reports[off+u.cluster] = res.body
				}
			}
		}
	}
	if !w.durable {
		if err := fetchReports(clients, all, deleted, reports); err != nil {
			return nil, err
		}
	}
	rss, err := peakRSS(srv.pid())
	if err != nil {
		return nil, err
	}
	set(out.metrics, "server_rss_mb", float64(rss)/(1<<20), "MB")

	// SIGKILL and restart: time to ready, and for durable runs the
	// acknowledged ticks must all be back.
	var recoverS []float64
	for i := 0; i < restarts; i++ {
		srv.kill()
		t := time.Now()
		if err := srv.start(); err != nil {
			return nil, fmt.Errorf("restarting tempod: %w", err)
		}
		recoverS = append(recoverS, time.Since(t).Seconds())
	}
	set(out.layer, "service.recover_s", median(recoverS), "s")
	closeClients(clients)
	clients = newClients(srv.url())
	if w.durable {
		lost, err := checkRecovered(clients, all, acked, deleted)
		if err != nil {
			return nil, err
		}
		out.mismatches = append(out.mismatches, lost...)
		if err := finishTail(clients, p, seed); err != nil {
			return nil, err
		}
		if err := fetchReports(clients, all, deleted, reports); err != nil {
			return nil, err
		}
	}
	srv.kill()

	out.mismatches = append(out.mismatches, verifyReports(all, reports)...)
	for i, run := range append(runs[0], runs[1]...) {
		phase := i / segments
		isSampled := func(ci int) bool { return sampled(seed, phase, ci) }
		out.mismatches = append(out.mismatches, verifySamples(p.phases[phase], run, isSampled)...)
	}
	return out, nil
}

// readServerMetrics copies the admission figures from /v1/metrics.
func readServerMetrics(srv *server, out *timed) error {
	c := newClient(srv.url())
	defer c.close()
	raw, err := c.ok("GET", "/v1/metrics", nil)
	if err != nil {
		return err
	}
	var m service.Metrics
	if err := json.Unmarshal(raw, &m); err != nil {
		return fmt.Errorf("decoding /v1/metrics: %w", err)
	}
	p99 := 0.0
	for _, sh := range m.Shards {
		p99 = max(p99, sh.TickLatencyP99Ms)
	}
	out.layer["service.shed"] = metric{float64(m.ShedRequests), "count"}
	out.layer["service.shard_tick_p99_ms"] = metric{p99, "ms"}
	return nil
}

// fetchReports fetches the report of every cluster not deleted in-phase.
func fetchReports(clients []*client, cs []*cluster, deleted []bool, out [][]byte) error {
	return parallel(clients, len(cs), func(c *client, i int) error {
		if deleted[i] {
			return nil
		}
		raw, err := c.ok("GET", "/v1/clusters/"+cs[i].id+"/report", nil)
		out[i] = raw
		return err
	})
}

// checkRecovered checks what a restarted durable tempod holds: every
// acknowledged tick of every live cluster, and none of the clusters
// deleted before the kill.
func checkRecovered(clients []*client, cs []*cluster, acked []int, deleted []bool) ([]string, error) {
	var mu sync.Mutex
	var bad []string
	report := func(format string, args ...any) {
		mu.Lock()
		bad = append(bad, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	err := parallel(clients, len(cs), func(c *client, i int) error {
		status, raw, err := c.do("GET", "/v1/clusters/"+cs[i].id, nil)
		switch {
		case err != nil:
			return err
		case deleted[i]:
			if status != http.StatusNotFound {
				report("%s: deleted before SIGKILL, status %d after restart", cs[i].id, status)
			}
			return nil
		case status != http.StatusOK:
			report("%s: status %d after restart: %s", cs[i].id, status, raw)
			return nil
		}
		var st service.StatusResponse
		if err := json.Unmarshal(raw, &st); err != nil {
			return err
		}
		if st.Ticks < acked[i] {
			report("%s: %d ticks after restart, %d acknowledged before SIGKILL", cs[i].id, st.Ticks, acked[i])
		}
		return nil
	})
	return bad, err
}

// finishTail runs the rounds left after the timed phases, untimed.
func finishTail(clients []*client, p *plan, seed int64) error {
	// The tail's rounds run round-major over the survivors: nothing is
	// deleted any more.
	tail := *p.w
	tail.window = 0
	for i := range p.phases {
		units, n, err := tail.buildUnits(p.survivors(i), p.w.rounds, p.w.rounds+p.w.tail, mix(seed, int64(i)))
		if err != nil {
			return err
		}
		run := runPhase(clients, units, n, schedule{}, func(*unit, *request) bool { return false })
		if st := statsOf(run); st.firstErr != nil {
			return fmt.Errorf("finishing clusters after restart: %w", st.firstErr)
		}
	}
	return nil
}
