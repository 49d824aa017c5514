package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"tempo"
	"tempo/internal/scenario"
	"tempo/internal/service"
	"tempo/internal/store"
)

// The traced run replays a workload's capacity-phase request sequence in
// this process at three depths, each on fresh state and with nproc
// callers, and puts a span around every call it makes:
//
//  1. service.Handler() through httptest.NewRecorder: no TCP, no client;
//  2. service.Service methods, called directly;
//  3. a bare tempo.Session and store.ClusterStore, driven in the service's
//     tick order (Tick, Search, AppendTick, Snapshot+WriteSnapshot).
//
// The replays are deterministic, so request r does the same work at every
// depth. A depth-d+1 span names the depth-d span of the same request as
// its parent, and a depth's self time is its span minus its children's.
// After depth 3, probes time the layers the request mix does not reach on
// every workload: QS over whole and sub windows, one-shot and standing
// queries, what-if, the simulator alone, and the store's append, snapshot,
// sync and recovery.

// span is one timed call.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory; they are written out when the run ends.
type tracer struct {
	on    bool
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

// add records a finished call and returns its span id (0 when off).
func (t *tracer) add(name string, parent, req int, start, end time.Time) int {
	if !t.on {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Nanoseconds(), End: end.Sub(t.t0).Nanoseconds()})
	return id
}

// timed runs fn inside a span.
func (t *tracer) timed(name string, parent, req int, fn func() error) (int, error) {
	start := time.Now()
	err := fn()
	return t.add(name, parent, req, start, time.Now()), err
}

type layerResult struct {
	metrics    map[string]metric
	mismatches []string
}

// replaySeq is the request sequence every depth replays: one create per
// cluster, the capacity phase's rounds for as many of its clusters as
// make about traceTicks ticks, then a report for every cluster still
// standing.
type replaySeq struct {
	clusters []*cluster
	units    []unit
	n        int
	ticks    int
}

func newReplaySeq(w *workload, p *plan, seed int64) (*replaySeq, error) {
	cs := p.phases[0][:min(len(p.phases[0]), (traceTicks+w.rounds-1)/w.rounds)]
	seq := &replaySeq{clusters: cs}
	add := func(u unit) {
		u.first = seq.n
		seq.n += len(u.reqs)
		seq.units = append(seq.units, u)
	}
	for ci, c := range cs {
		req, err := w.newRequest(kCreate, c, -1, seed)
		if err != nil {
			return nil, err
		}
		add(unit{cluster: ci, round: -1, reqs: []request{req}})
	}
	for _, seg := range p.segs[0] {
		for _, u := range seg {
			if u.cluster < len(cs) {
				add(u)
				seq.ticks++
			}
		}
	}
	for ci, c := range cs {
		if w.window > 0 && !c.survivor {
			continue // its last unit already reported and deleted it
		}
		req, err := w.newRequest(kReport, c, w.rounds, seed)
		if err != nil {
			return nil, err
		}
		add(unit{cluster: ci, round: w.rounds, reqs: []request{req}})
	}
	return seq, nil
}

// depth is one replay depth: it executes request r (flat index req) of a
// unit for cluster c and returns the response bytes a report request
// produced, for the cross-depth check.
type depth interface {
	call(ci int, c *cluster, r *request, req int) ([]byte, error)
}

// replay runs the sequence on nproc callers. Each request is executed at
// every given depth in turn before the caller moves on, so all depths see
// the same moments of machine load and their differences are not swamped
// by drift between separate runs. It returns the wall time and, per depth,
// the last report of every cluster.
func replay(seq *replaySeq, ds []depth) (time.Duration, [][][]byte, error) {
	reports := make([][][]byte, len(ds))
	for i := range reports {
		reports[i] = make([][]byte, len(seq.clusters))
	}
	var mu sync.Mutex
	var first error
	start := time.Now()
	dispatch(seq.units, runtime.NumCPU(), func(_ int, u *unit) {
		c := seq.clusters[u.cluster]
		for j := range u.reqs {
			r := &u.reqs[j]
			for di, d := range ds {
				body, err := d.call(u.cluster, c, r, u.first+j)
				if err != nil {
					mu.Lock()
					if first == nil {
						first = fmt.Errorf("depth %d: %s %s: %w", di+1, r.kind, c.id, err)
					}
					mu.Unlock()
					continue
				}
				if r.kind == kReport {
					reports[di][u.cluster] = body // a cluster's units run in order: last wins
				}
			}
		}
	})
	return time.Since(start), reports, first
}

// spanKind is the name suffix a request kind's spans carry at depths 1 and 2.
func spanKind(k kind) string {
	switch k {
	case kQSAll, kQSFull, kQSSub:
		return "qs"
	}
	return k.String()
}

// httpDepth is depth 1: the service's HTTP handler, in process.
type httpDepth struct {
	h http.Handler
	// keepClusters skips deletes, so the heap holds every cluster's state
	// when the replay ends.
	keepClusters bool
	tr           *tracer
	ids          []int
	respBytes    int64
	mu           sync.Mutex
}

func (d *httpDepth) call(_ int, _ *cluster, r *request, req int) ([]byte, error) {
	if r.kind == kDelete && d.keepClusters {
		return nil, nil
	}
	hr := httptest.NewRequest(r.method, r.path, bytes.NewReader(r.body))
	if r.body != nil {
		hr.Header.Set("Content-Type", "application/json")
	}
	rec := httptest.NewRecorder()
	start := time.Now()
	d.h.ServeHTTP(rec, hr)
	d.ids[req] = d.tr.add("http."+spanKind(r.kind), 0, req, start, time.Now())
	if rec.Code/100 != 2 {
		return nil, fmt.Errorf("status %d: %s", rec.Code, bytes.TrimSpace(rec.Body.Bytes()))
	}
	if r.kind == kTick {
		d.mu.Lock()
		d.respBytes += int64(rec.Body.Len())
		d.mu.Unlock()
	}
	return rec.Body.Bytes(), nil
}

// whatIfConfigs turns a what-if request body into configurations the way
// tempod's handler does.
func whatIfConfigs(c *cluster, body []byte) ([]tempo.ClusterConfig, error) {
	var req service.WhatIfRequest
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, err
	}
	cfgs := make([]tempo.ClusterConfig, 0, len(req.Candidates))
	for _, cand := range req.Candidates {
		init := scenario.InitialSpec{Tenants: cand}
		cfg, err := init.Config(c.spec.Capacity, c.spec.TenantNames())
		if err != nil {
			return nil, err
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}

// svcDepth is depth 2: service.Service called directly. Request bodies
// are decoded before the span starts; decoding is the HTTP layer's work.
type svcDepth struct {
	svc     *service.Service
	tr      *tracer
	parents []int
	ids     []int
	plan    *tempo.QueryPlan
}

func (d *svcDepth) call(_ int, c *cluster, r *request, req int) ([]byte, error) {
	var cfgs []tempo.ClusterConfig
	if r.kind == kWhatIf {
		var err error
		if cfgs, err = whatIfConfigs(c, r.body); err != nil {
			return nil, err
		}
	}
	var out []byte
	id, err := d.tr.timed("service."+spanKind(r.kind), d.parents[req], req, func() error {
		switch r.kind {
		case kCreate:
			_, err := d.svc.Create(c.id, c.spec)
			return err
		case kDelete:
			return d.svc.Delete(context.Background(), c.id)
		}
		cl, err := d.svc.Get(c.id)
		if err != nil {
			return err
		}
		switch r.kind {
		case kTick:
			_, _, err = d.svc.Tick(context.Background(), cl)
		case kQSAll, kQSFull, kQSSub:
			from, to := qsWindow(r.kind, c.spec.Interval(), r.round)
			_, err = d.svc.QS(cl, from, to)
		case kQuery:
			_, err = d.svc.Query(cl, d.plan)
		case kWhatIf:
			_, err = d.svc.WhatIf(cl, cfgs)
		case kReport:
			out, err = cl.Session().Report().MarshalCanonical()
		}
		return err
	})
	d.ids[req] = id
	return out, err
}

// bareCluster is one cluster at depth 3.
type bareCluster struct {
	sess *tempo.Session
	cs   *store.ClusterStore
}

// bareDepth is depth 3: a bare session plus, for durable workloads, its
// cluster store, driven in the order the service's tick executes.
type bareDepth struct {
	tr       *tracer
	parents  []int
	st       *store.Store
	snapshot int
	plan     *tempo.QueryPlan
	clusters []bareCluster

	mu       sync.Mutex
	searches []tempo.SearchStats
	rows     []int
}

func sessionOptions() tempo.ScenarioOptions {
	// tempod's sessions: what-if parallelism 1 and a wall clock, so the
	// controller reports its decision time.
	return tempo.ScenarioOptions{Parallelism: 1, Clock: time.Now}
}

func (d *bareDepth) call(ci int, c *cluster, r *request, req int) ([]byte, error) {
	parent := d.parents[req]
	b := &d.clusters[ci]
	span := func(name string, fn func() error) error {
		_, err := d.tr.timed(name, parent, req, fn)
		return err
	}
	switch r.kind {
	case kCreate:
		err := span("scenario.build", func() error {
			var err error
			b.sess, err = tempo.NewSession(c.spec, sessionOptions())
			return err
		})
		if err != nil || d.st == nil {
			return nil, err
		}
		return nil, span("store.create", func() error {
			var err error
			b.cs, err = d.st.Create(c.id, c.spec)
			return err
		})
	case kTick:
		i := b.sess.Ticks()
		if err := span("scenario.tick", func() error { _, err := b.sess.Tick(); return err }); err != nil {
			return nil, err
		}
		var st *tempo.SearchStats
		_ = span("core.search", func() error { st = b.sess.Search(i); return nil })
		if st != nil {
			d.mu.Lock()
			d.searches = append(d.searches, *st)
			d.mu.Unlock()
		}
		if b.cs == nil {
			return nil, nil
		}
		if err := span("store.append", func() error { return b.cs.AppendTick(i, b.sess.ObservedSchedule(i)) }); err != nil {
			return nil, err
		}
		if (i+1)%d.snapshot == 0 {
			return nil, span("store.snapshot", func() error { return snapshot(b.sess, b.cs) })
		}
		return nil, nil
	case kQSAll, kQSFull, kQSSub:
		from, to := qsWindow(r.kind, c.spec.Interval(), r.round)
		name := "qs.window_full"
		if r.kind == kQSSub {
			name = "qs.window_sub"
		}
		return nil, span(name, func() error { _, err := b.sess.QS(from, to); return err })
	case kQuery:
		return nil, span("query.oneshot", func() error { return d.query(b.sess) })
	case kWhatIf:
		cfgs, err := whatIfConfigs(c, r.body)
		if err != nil {
			return nil, err
		}
		return nil, span("whatif.batch", func() error { _, err := b.sess.WhatIf(cfgs); return err })
	case kDelete:
		// The session stays for the layer probes; only durable state goes.
		cs := b.cs
		b.cs = nil
		if cs == nil {
			return nil, nil
		}
		return nil, span("store.delete", func() error { return d.st.DeleteCluster(cs) })
	case kReport:
		var out []byte
		err := span("scenario.report", func() error {
			var err error
			out, err = b.sess.Report().MarshalCanonical()
			return err
		})
		return out, err
	}
	return nil, fmt.Errorf("no depth-3 form for %s", r.kind)
}

func (d *bareDepth) query(sess *tempo.Session) error {
	res, err := sess.Query(d.plan)
	if err != nil {
		return err
	}
	d.mu.Lock()
	d.rows = append(d.rows, len(res.Rows))
	d.mu.Unlock()
	return nil
}

func snapshot(sess *tempo.Session, cs *store.ClusterStore) error {
	snap, err := sess.Snapshot()
	if err != nil {
		return err
	}
	return cs.WriteSnapshot(snap)
}

// tickStages are the depth-3 spans that make up a service tick.
var tickStages = map[string]bool{"scenario.tick": true, "core.search": true, "store.append": true, "store.snapshot": true}

// traceTicks sizes the traced replay: it drives enough clusters for about
// that many ticks. probeClusters bounds how many of them the layer probes
// visit.
const (
	traceTicks    = 400
	probeClusters = 48
)

// runTraced replays the workload at the three depths and derives the
// per-layer metrics.
func runTraced(w *workload, seed int64, seconds float64, work string) (*layerResult, error) {
	p, err := newPlan(w, seed, seconds)
	if err != nil {
		return nil, err
	}
	seq, err := newReplaySeq(w, p, seed)
	if err != nil {
		return nil, err
	}
	plan, err := tempo.ParseQueryPlan(strings.NewReader(queryPlan))
	if err != nil {
		return nil, err
	}
	out := &layerResult{metrics: map[string]metric{}}
	set := func(name string, v float64, unit string) { out.metrics[name] = metric{v, unit} }
	tr := &tracer{t0: time.Now()}
	var stores []*store.Store
	var services []*service.Service
	closeAll := func() {
		for _, svc := range services {
			svc.Close()
		}
		for _, st := range stores {
			st.Close()
		}
		services, stores = nil, nil
		runtime.GC()
	}
	defer closeAll()
	openStore := func(name string) (*store.Store, error) {
		dir := filepath.Join(work, name)
		if err := os.RemoveAll(dir); err != nil {
			return nil, err
		}
		st, err := store.Open(dir, store.Options{SyncInterval: 50 * time.Millisecond, SyncBytes: 1 << 20})
		if err == nil {
			stores = append(stores, st)
		}
		return st, err
	}
	// newService starts a service with tempod's default configuration,
	// plus a store when the workload is durable.
	newService := func(name string) (*service.Service, error) {
		cfg := service.Config{}
		if w.durable {
			st, err := openStore(name)
			if err != nil {
				return nil, err
			}
			cfg.Store = st
		}
		svc, err := service.New(cfg)
		if err == nil {
			services = append(services, svc)
		}
		return svc, err
	}
	// newDepths builds fresh state for one pass at every depth.
	newDepths := func(pass string) (*httpDepth, *svcDepth, *bareDepth, error) {
		svc1, err := newService(pass + "-depth1")
		if err != nil {
			return nil, nil, nil, err
		}
		svc2, err := newService(pass + "-depth2")
		if err != nil {
			return nil, nil, nil, err
		}
		d1 := &httpDepth{h: svc1.Handler(), tr: tr, ids: make([]int, seq.n)}
		d2 := &svcDepth{svc: svc2, tr: tr, parents: d1.ids, ids: make([]int, seq.n), plan: plan}
		d3 := &bareDepth{tr: tr, parents: d2.ids, snapshot: 8, plan: plan, clusters: make([]bareCluster, len(seq.clusters))}
		if w.durable {
			if d3.st, err = openStore(pass + "-depth3"); err != nil {
				return nil, nil, nil, err
			}
		}
		return d1, d2, d3, nil
	}

	// Pass 1: depth 1 alone, untraced, for the runtime's view of serving:
	// allocations, GC CPU share, and the heap every cluster's state holds
	// once all its rounds have run.
	svc, err := newService("runtime")
	if err != nil {
		return nil, err
	}
	d1 := &httpDepth{h: svc.Handler(), tr: tr, ids: make([]int, seq.n), keepClusters: true}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	gc0 := gcCPU()
	if _, _, err := replay(seq, []depth{d1}); err != nil {
		return nil, fmt.Errorf("depth 1 replay: %w", err)
	}
	gc1 := gcCPU()
	runtime.ReadMemStats(&ms1)
	ticks := float64(seq.ticks)
	set("runtime.allocs_per_tick", float64(ms1.Mallocs-ms0.Mallocs)/ticks, "count")
	set("runtime.alloc_bytes_per_tick", float64(ms1.TotalAlloc-ms0.TotalAlloc)/ticks, "B")
	set("runtime.gc_cpu_frac", (gc1[0]-gc0[0])/(gc1[1]-gc0[1]), "frac")
	runtime.GC()
	runtime.ReadMemStats(&ms1)
	set("runtime.heap_bytes_per_cluster", float64(int64(ms1.HeapAlloc)-int64(ms0.HeapAlloc))/float64(len(seq.clusters)), "B")
	closeAll()

	// Passes 2 and 3: all depths in lockstep, untraced then traced; the
	// difference in wall time is the tracing overhead.
	var wall [2]time.Duration
	var reports [][][]byte
	var d3 *bareDepth
	for pass := 0; pass < 2; pass++ {
		tr.on = pass == 1
		var d2 *svcDepth
		if d1, d2, d3, err = newDepths(fmt.Sprintf("pass%d", pass)); err != nil {
			return nil, err
		}
		if wall[pass], reports, err = replay(seq, []depth{d1, d2, d3}); err != nil {
			return nil, err
		}
		if pass == 0 {
			closeAll()
		}
	}
	set("trace.overhead_frac", wall[1].Seconds()/wall[0].Seconds()-1, "frac")
	set("service.http.resp_bytes_per_tick", float64(d1.respBytes)/ticks, "B")
	for i := range reports[0] {
		if !bytes.Equal(reports[0][i], reports[1][i]) || !bytes.Equal(reports[0][i], reports[2][i]) {
			out.mismatches = append(out.mismatches, fmt.Sprintf("%s: replayed reports differ between depths", seq.clusters[i].id))
		}
	}

	// Layer probes on a bounded set of clusters.
	pr := &prober{tr: tr, d3: d3, w: w, seed: seed}
	if !w.durable {
		if pr.st, err = openStore("probe-store"); err != nil {
			return nil, err
		}
	} else {
		pr.st = d3.st
	}
	n := min(len(seq.clusters), probeClusters)
	for i := 0; i < n; i++ {
		if err := pr.probe(seq.clusters[i], &d3.clusters[i]); err != nil {
			return nil, fmt.Errorf("probing %s: %w", seq.clusters[i].id, err)
		}
	}
	if err := pr.storeFigures(seq, work, out.metrics); err != nil {
		return nil, err
	}

	layerMetrics(tr.spans, d3, pr, seq, out.metrics)
	if err := writeSpans(filepath.Join(work, "spans.jsonl"), tr.spans); err != nil {
		return nil, err
	}
	printLayerSummary(w, tr.spans, seq)
	return out, nil
}

// gcCPU returns the runtime's cumulative GC and total CPU-seconds.
func gcCPU() [2]float64 {
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return [2]float64{s[0].Value.Float64(), s[1].Value.Float64()}
}

// prober times the layers the request mix may not reach.
type prober struct {
	tr    *tracer
	d3    *bareDepth
	w     *workload
	seed  int64
	st    *store.Store
	tasks []int
}

func (p *prober) probe(c *cluster, b *bareCluster) error {
	sess := b.sess
	ticks := sess.Ticks()
	span := func(name string, fn func() error) error {
		_, err := p.tr.timed(name, 0, 0, fn)
		return err
	}
	for i := 0; i < ticks; i++ {
		for _, k := range []kind{kQSFull, kQSSub} {
			from, to := qsWindow(k, sess.Interval(), i)
			name := map[kind]string{kQSFull: "qs.window_full", kQSSub: "qs.window_sub"}[k]
			if err := span(name, func() error { _, err := sess.QS(from, to); return err }); err != nil {
				return err
			}
		}
	}
	if err := span("query.oneshot", func() error { return p.d3.query(sess) }); err != nil {
		return err
	}
	runner, err := sess.NewQueryRunner(p.d3.plan)
	if err != nil {
		return err
	}
	for i := 0; i < ticks; i++ {
		if err := span("query.push", func() error { _, err := runner.PushTick(i, sess.ObservedSchedule(i)); return err }); err != nil {
			return err
		}
	}
	body, err := json.Marshal(whatIfRequest(c.spec, p.w.candidates, ticks, p.seed))
	if err != nil {
		return err
	}
	cfgs, err := whatIfConfigs(c, body)
	if err != nil {
		return err
	}
	if err := span("whatif.batch", func() error { _, err := sess.WhatIf(cfgs); return err }); err != nil {
		return err
	}
	// The simulator alone, on the session's workload trace and initial
	// configuration.
	rt, err := scenario.Build(c.spec, scenario.Options{Parallelism: 1})
	if err != nil {
		return err
	}
	var sched *tempo.Schedule
	if err := span("cluster.run", func() error {
		var err error
		sched, err = tempo.Run(rt.Trace, rt.Initial, tempo.RunOptions{})
		return err
	}); err != nil {
		return err
	}
	p.tasks = append(p.tasks, len(sched.Tasks))
	if b.cs != nil {
		return nil // durable: the replay already wrote this cluster's store
	}
	cs, err := p.st.Create(c.id, c.spec)
	if err != nil {
		return err
	}
	for i := 0; i < ticks; i++ {
		if err := span("store.append", func() error { return cs.AppendTick(i, sess.ObservedSchedule(i)) }); err != nil {
			return err
		}
		// The service snapshots every 8th tick; the probe also snapshots
		// after the last one, so clusters with fewer ticks are timed too.
		// Snapshots capture the session's current state either way.
		if (i+1)%p.d3.snapshot == 0 || i == ticks-1 {
			if err := span("store.snapshot", func() error { return snapshot(sess, cs) }); err != nil {
				return err
			}
		}
	}
	b.cs = cs
	return nil
}

// storeFigures syncs every store the probes or the replay wrote, measures
// its bytes per tick, and times recovery from it.
func (p *prober) storeFigures(seq *replaySeq, work string, m map[string]metric) error {
	var css []*bareCluster
	ticks := 0
	for i := range p.d3.clusters {
		if b := &p.d3.clusters[i]; b.cs != nil {
			css = append(css, b)
			ticks += b.cs.Ticks()
		}
	}
	if len(css) == 0 || ticks == 0 {
		return errors.New("no cluster store was written")
	}
	for _, b := range css {
		if _, err := p.tr.timed("store.sync", 0, 0, b.cs.Sync); err != nil {
			return err
		}
	}
	dir := p.st.Dir()
	if err := p.st.Close(); err != nil {
		return err
	}
	bytes, err := dirBytes(dir)
	if err != nil {
		return err
	}
	m["store.bytes_per_tick"] = metric{float64(bytes) / float64(ticks), "B"}
	start := time.Now()
	st, err := store.Open(dir, store.Options{SyncInterval: 50 * time.Millisecond, SyncBytes: 1 << 20})
	if err != nil {
		return err
	}
	defer st.Close()
	ids := st.IDs()
	for _, id := range ids {
		cs, err := st.Get(id)
		if err != nil {
			return err
		}
		schedules, err := cs.Schedules()
		if err != nil {
			return err
		}
		snap, err := cs.LoadSnapshot()
		if err != nil {
			return err
		}
		if _, err := tempo.ResumeSession(cs.Spec(), sessionOptions(), snap, schedules); err != nil {
			return fmt.Errorf("recovering %s: %w", id, err)
		}
	}
	end := time.Now()
	p.tr.add("store.recover", 0, 0, start, end)
	m["store.recover_us_per_cluster"] = metric{us(end.Sub(start)) / float64(len(ids)), "us"}
	return nil
}

// layerMetrics derives the per-layer figures from the spans and counters.
func layerMetrics(spans []span, d3 *bareDepth, pr *prober, seq *replaySeq, m map[string]metric) {
	byName := map[string][]time.Duration{}
	children := map[int]time.Duration{} // parent span id -> children's total
	stageSum := map[int]time.Duration{} // service.tick span id -> tick stages
	for _, s := range spans {
		byName[s.Name] = append(byName[s.Name], s.dur())
		if s.Parent != 0 {
			children[s.Parent] += s.dur()
			if tickStages[s.Name] {
				stageSum[s.Parent] += s.dur()
			}
		}
	}
	mean := func(name string) float64 {
		ds := byName[name]
		if len(ds) == 0 {
			return 0
		}
		var t time.Duration
		for _, d := range ds {
			t += d
		}
		return us(t) / float64(len(ds))
	}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for _, k := range []string{"tick", "qs", "query", "whatif", "create", "report"} {
		set("service.http."+k+"_us", mean("http."+k), "us")
	}
	// Self times: depth-1 spans minus their depth-2 children; depth-2
	// service.tick spans minus their depth-3 tick stages.
	var http1, http2, svcTick, stages time.Duration
	var nHTTP, nTick int
	for _, s := range spans {
		switch {
		case strings.HasPrefix(s.Name, "http."):
			http1 += s.dur()
			http2 += children[s.ID]
			nHTTP++
		case s.Name == "service.tick":
			svcTick += s.dur()
			stages += stageSum[s.ID]
			nTick++
		}
	}
	set("service.http.self_us", us(http1-http2)/float64(max(nHTTP, 1)), "us")
	set("service.admission_wait_us", us(svcTick-stages)/float64(max(nTick, 1)), "us")
	set("trace.coverage", stages.Seconds()/svcTick.Seconds(), "frac")

	set("scenario.build_us", mean("scenario.build"), "us")
	set("scenario.tick_us", mean("scenario.tick"), "us")
	set("scenario.report_us", mean("scenario.report"), "us")
	var dec, cand, scored, warm, pruned, run, reused float64
	for _, st := range d3.searches {
		dec += float64(st.DecisionNanos) / 1e3
		cand += float64(st.Candidates)
		scored += float64(st.FullyScored)
		warm += float64(st.WarmStarted)
		pruned += float64(st.Pruned)
		run += float64(st.SimsRun)
		reused += float64(st.SimsReused)
	}
	nd := float64(max(len(d3.searches), 1))
	set("scenario.observe_us", mean("scenario.tick")-dec/nd, "us")
	set("core.decision_us", dec/nd, "us")
	set("core.candidates", cand/nd, "count")
	set("core.fully_scored", scored/nd, "count")
	set("core.warm_started", warm/nd, "count")
	set("core.pruned", pruned/nd, "count")
	set("core.fully_scored_frac", scored/max(cand, 1), "frac")
	set("whatif.sims_run", run/nd, "count")
	set("whatif.sims_reused", reused/nd, "count")
	set("whatif.reuse_frac", reused/max(run+reused, 1), "frac")
	set("whatif.batch_us", mean("whatif.batch"), "us")
	set("cluster.run_us", mean("cluster.run"), "us")
	tasks := 0
	for _, t := range pr.tasks {
		tasks += t
	}
	set("cluster.tasks_per_run", float64(tasks)/float64(max(len(pr.tasks), 1)), "count")
	set("qs.window_full_us", mean("qs.window_full"), "us")
	set("qs.window_sub_us", mean("qs.window_sub"), "us")
	set("query.oneshot_us", mean("query.oneshot"), "us")
	set("query.push_us", mean("query.push"), "us")
	rows := 0
	for _, r := range d3.rows {
		rows += r
	}
	set("query.rows", float64(rows)/float64(max(len(d3.rows), 1)), "count")
	set("store.append_us", mean("store.append"), "us")
	set("store.sync_us", mean("store.sync"), "us")
	set("store.snapshot_us", mean("store.snapshot"), "us")
}

func writeSpans(path string, spans []span) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printLayerSummary prints, per request kind, the mean time at each depth
// and each depth's self time: where a request's time went.
func printLayerSummary(w *workload, spans []span, seq *replaySeq) {
	type agg struct {
		n          int
		d1, d2, d3 time.Duration
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	kinds := map[string]*agg{}
	d2of := map[int]string{} // depth-2 span id -> kind
	for _, s := range spans {
		if !strings.HasPrefix(s.Name, "http.") {
			continue
		}
		k := strings.TrimPrefix(s.Name, "http.")
		if kinds[k] == nil {
			kinds[k] = &agg{}
		}
		kinds[k].n++
		kinds[k].d1 += s.dur()
	}
	for _, s := range spans {
		if p, ok := byID[s.Parent]; ok && strings.HasPrefix(p.Name, "http.") {
			k := strings.TrimPrefix(p.Name, "http.")
			kinds[k].d2 += s.dur()
			d2of[s.ID] = k
		}
	}
	stages := map[string]map[string]time.Duration{}
	for _, s := range spans {
		if k, ok := d2of[s.Parent]; ok {
			kinds[k].d3 += s.dur()
			if stages[k] == nil {
				stages[k] = map[string]time.Duration{}
			}
			stages[k][s.Name] += s.dur()
		}
	}
	names := make([]string, 0, len(kinds))
	for k := range kinds {
		names = append(names, k)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "perfbench: %s traced replay, %d clusters, %d requests; mean us per request\n", w.name, len(seq.clusters), seq.n)
	fmt.Fprintf(os.Stderr, "perfbench:   %-7s %7s %10s %10s %10s %10s %10s\n", "request", "n", "http", "http self", "service", "svc self", "session")
	for _, k := range names {
		a := kinds[k]
		n := float64(a.n)
		fmt.Fprintf(os.Stderr, "perfbench:   %-7s %7d %10.1f %10.1f %10.1f %10.1f %10.1f\n",
			k, a.n, us(a.d1)/n, us(a.d1-a.d2)/n, us(a.d2)/n, us(a.d2-a.d3)/n, us(a.d3)/n)
		var st []string
		for name, d := range stages[k] {
			st = append(st, fmt.Sprintf("%s %.1f", name, us(d)/n))
		}
		sort.Strings(st)
		if len(st) > 0 {
			fmt.Fprintf(os.Stderr, "perfbench:   %-7s   session stages: %s\n", "", strings.Join(st, ", "))
		}
	}
}
