package main

import (
	"bytes"
	"embed"
	"encoding/json"
	"fmt"
	"math"
	"net/url"
	"sort"
	"time"

	"tempo/internal/scenario"
	"tempo/internal/service"
)

//go:embed specs/*.json
var specFiles embed.FS

// kind is one request type the generator sends.
type kind int

const (
	kTick kind = iota
	kQSAll
	kQSFull
	kQSSub
	kQuery
	kReport
	kWhatIf
	// kCreate is cluster creation; the timed phases create clusters during
	// set-up, the traced replay as part of its request sequence.
	kCreate
	kDelete
)

var kindNames = [...]string{"tick", "qs_all", "qs_full", "qs_sub", "query", "report", "whatif", "create", "delete"}

func (k kind) String() string { return kindNames[k] }

// class groups kinds into the three latency classes the end-to-end
// metrics report.
func (k kind) class() string {
	switch k {
	case kTick:
		return "tick"
	case kWhatIf:
		return "whatif"
	case kCreate, kDelete:
		return k.String()
	default:
		return "read"
	}
}

// workload is one traffic mix against tempod.
type workload struct {
	name string
	// spec returns the base scenario every cluster derives from.
	spec func() (*scenario.Spec, error)
	// rounds is how many control rounds each cluster runs in a timed
	// phase. It is small and fixed so a phase's per-request cost stays
	// flat: one-shot queries and reports grow with a cluster's history.
	rounds int
	// rate is the paced phase's fixed aggregate request rate (requests/s):
	// a third to a half of the seed commit's capacity on this mix, low
	// enough that a slow moment of a shared host does not push the paced
	// phase up the queueing curve.
	rate float64
	// capClusters is how many clusters the capacity phase drives per
	// paced-phase cluster; at a rate near half capacity, 1 makes the
	// capacity phase about half as long as the paced one.
	capClusters float64
	// probes lists the requests sent after a cluster's tick in a round.
	probes func(round int) []kind
	// candidates is how many configurations a what-if probe scores.
	candidates int
	// durable runs tempod with -data and ends with SIGKILL and a restart.
	durable bool
	// window, when positive, bounds how many clusters hold state at once:
	// clusters run that many at a time and are deleted when done (see
	// buildUnits).
	window int
	// tail is how many rounds each cluster still has to run after the
	// timed phases; durable-reads runs them after the restart.
	tail int
}

// pacedShare is the fraction of --seconds the paced phase is sized to
// last.
const pacedShare = 0.75

var workloads = []*workload{
	// Thousands of tiny clusters: HTTP/JSON, admission, cluster creation and
	// GC dominate, the control loop is cheap.
	{
		name:   "fleet-small",
		spec:   service.SmallSpec,
		rounds: 6,
		// A quarter of capacity, not half: fleet-small's requests are so
		// short that at half capacity its p99 is set by queueing behind
		// GC and scheduler pauses and does not repeat from run to run.
		rate:        1200,
		capClusters: 2,
		candidates:  2,
		window:      128,
		probes: func(r int) []kind {
			// cmd/loadgen's default mix: qs and query every 2nd round, what-if
			// every 3rd.
			var ks []kind
			if r%2 == 0 {
				ks = append(ks, kQSAll, kQuery)
			}
			if r%3 == 0 {
				ks = append(ks, kWhatIf)
			}
			return ks
		},
	},
	// Noisy-production clusters: the what-if search in the cluster scheduler
	// dominates each tick, HTTP is a small share.
	{
		name:        "fleet-heavy",
		spec:        embeddedSpec("specs/fleet-heavy.json"),
		rounds:      8,
		rate:        170,
		capClusters: 1,
		candidates:  1,
		window:      12,
		probes: func(r int) []kind {
			if r%4 == 3 {
				return []kind{kWhatIf, kQSFull, kQuery}
			}
			return []kind{kWhatIf, kQSFull}
		},
	},
	// Medium clusters on tempod -data under several reads per tick: WAL,
	// fsync, snapshots and recovery. Its figures follow the host's shared
	// disk too closely to be gated (see record.json), so BENCHMARK.json
	// leaves it out; it runs and checks everything when named.
	{
		name:        "durable-reads",
		spec:        embeddedSpec("specs/durable-reads.json"),
		rounds:      8,
		rate:        300,
		capClusters: 1,
		candidates:  1,
		window:      12,
		durable:     true,
		tail:        2,
		probes: func(r int) []kind {
			// Two reads per tick, alternating so every read path runs on
			// every cluster: whole-interval QS (fast path) and a one-shot
			// query, then sub-window QS (merge tree) and the report.
			if r%2 == 0 {
				return []kind{kQSFull, kQuery, kWhatIf}
			}
			return []kind{kQSSub, kReport, kWhatIf}
		},
	},
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

func embeddedSpec(path string) func() (*scenario.Spec, error) {
	return func() (*scenario.Spec, error) {
		raw, err := specFiles.ReadFile(path)
		if err != nil {
			return nil, err
		}
		return scenario.Load(bytes.NewReader(raw))
	}
}

// minSamples is the fewest latencies a paced class may have: a p99 needs
// ten samples beyond it.
const minSamples = 1000

// clusters sizes the run: how many clusters the paced phase drives so it
// lasts about pacedShare·seconds at the workload's rate, and so every
// latency class gets at least minSamples samples.
func (w *workload) clusters(seconds float64) int {
	perCluster := 0
	perClass := map[string]int{}
	for r := 0; r < w.rounds; r++ {
		perCluster += 1 + len(w.probes(r))
		perClass["tick"]++
		for _, k := range w.probes(r) {
			perClass[k.class()]++
		}
	}
	n := int(math.Ceil(w.rate * pacedShare * seconds / float64(perCluster)))
	for _, c := range []string{"tick", "read", "whatif"} {
		n = max(n, (minSamples+perClass[c]-1)/max(perClass[c], 1))
	}
	return n
}

// cluster is one tempod cluster the benchmark creates.
type cluster struct {
	id   string
	spec *scenario.Spec
	// create is the POST /v1/clusters body.
	create []byte
	// survivor clusters are not deleted in-phase; see workload.survivor.
	survivor bool
}

// mix derives a per-cluster seed from the run seed, the phase and the
// cluster index (splitmix64 finalizer), so every cluster has its own
// random streams and a run seed changes all of them.
func mix(seed int64, parts ...int64) int64 {
	x := uint64(seed)
	for _, p := range parts {
		x ^= uint64(p) + 0x9e3779b97f4a7c15 + (x << 6) + (x >> 2)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
	}
	return int64(x >> 24) // positive, well inside the spec seed range
}

// survivor reports whether cluster ci of a group of n run together
// outlives the timed phases: it is neither deleted in-phase nor finished,
// and runs the workload's tail rounds afterwards. With a window, only the
// last cluster of each slot survives.
func (w *workload) survivor(ci, n int) bool {
	return w.tail > 0 && (w.window == 0 || ci+min(w.window, n) >= n)
}

// newClusters derives n clusters for one phase from the base spec. Each
// runs the workload's rounds, plus its tail rounds if survives(i).
func (w *workload) newClusters(base *scenario.Spec, phase string, phaseIdx int, n int, seed int64, survives func(i int) bool) ([]*cluster, error) {
	raw, err := json.Marshal(base)
	if err != nil {
		return nil, err
	}
	out := make([]*cluster, n)
	for i := range out {
		spec, err := scenario.Load(bytes.NewReader(raw))
		if err != nil {
			return nil, err
		}
		spec.Name = fmt.Sprintf("%s-%s-%04d", base.Name, phase, i)
		spec.Seed = mix(seed, int64(phaseIdx), int64(i))
		spec.Iterations = w.rounds
		if survives(i) {
			spec.Iterations += w.tail
		}
		specJSON, err := json.Marshal(spec)
		if err != nil {
			return nil, err
		}
		body, err := json.Marshal(service.CreateRequest{ID: spec.Name, Spec: specJSON})
		if err != nil {
			return nil, err
		}
		out[i] = &cluster{id: spec.Name, spec: spec, create: body, survivor: survives(i)}
	}
	return out, nil
}

// request is one HTTP call of a phase.
type request struct {
	kind   kind
	round  int
	method string
	path   string
	body   []byte
}

// unit is one cluster's round: its tick, then the probes, sent in order by
// one client. A unit starts only after the same cluster's previous unit
// finished, so every response is a deterministic function of the seed.
type unit struct {
	cluster, round int
	first          int // flat index of reqs[0] in the phase
	reqs           []request
}

// queryPlan is the one-shot query probe: per-tenant job counts over the
// jobs relation, as cmd/loadgen sends.
const queryPlan = `{"version":1,"source":"jobs","ops":[{"op":"group_by","by":["tenant"]},{"op":"aggregate","aggs":[{"fn":"count","as":"jobs"}]}]}`

// buildUnits lays out rounds [from, to) for the clusters. Without a
// window the order is round-major: every cluster's round r, in a seeded
// order, before any cluster's round r+1. With a window of W, clusters run W
// at a time in staggered slots: slot s runs clusters s, s+W, s+2W, ... one
// after another, and slot s starts s/W of a cluster's lifetime late, so the
// number of clusters holding state stays near W. A windowed cluster's last
// unit also fetches its report and deletes it, unless it survives.
func (w *workload) buildUnits(cs []*cluster, from, to int, seed int64) ([]unit, int, error) {
	type keyed struct {
		t    float64
		slot int
		u    unit
	}
	var ks []keyed
	rounds := to - from
	slots := len(cs)
	if w.window > 0 {
		slots = min(w.window, len(cs))
	}
	for ci, c := range cs {
		for r := from; r < to; r++ {
			u := unit{cluster: ci, round: r}
			kinds := append([]kind{kTick}, w.probes(r)...)
			if w.window > 0 && r == w.rounds-1 && !c.survivor {
				kinds = append(kinds, kReport, kDelete)
			}
			for _, k := range kinds {
				req, err := w.newRequest(k, c, r, seed)
				if err != nil {
					return nil, 0, err
				}
				u.reqs = append(u.reqs, req)
			}
			slot, pos := ci%slots, ci/slots
			t := float64(pos*rounds+r-from) + float64(slot*rounds)/float64(slots)
			ks = append(ks, keyed{t, slot, u})
		}
	}
	// Within one step, slots go in a seeded order that changes every step.
	rank := func(k keyed) int64 { return mix(seed, 7, int64(k.t*float64(slots)), int64(k.slot)) }
	sort.Slice(ks, func(i, j int) bool {
		if ks[i].t != ks[j].t {
			return ks[i].t < ks[j].t
		}
		return rank(ks[i]) < rank(ks[j])
	})
	units := make([]unit, len(ks))
	flat := 0
	for i, k := range ks {
		k.u.first = flat
		flat += len(k.u.reqs)
		units[i] = k.u
	}
	return units, flat, nil
}

func (w *workload) newRequest(k kind, c *cluster, round int, seed int64) (request, error) {
	base := "/v1/clusters/" + c.id
	req := request{kind: k, round: round}
	switch k {
	case kTick:
		req.method, req.path = "POST", base+"/tick"
	case kQSAll, kQSFull, kQSSub:
		from, to := qsWindow(k, c.spec.Interval(), round)
		req.method, req.path = "GET", base+"/qs"
		if to > 0 {
			req.path += "?" + url.Values{"from": {from.String()}, "to": {to.String()}}.Encode()
		}
	case kQuery:
		req.method, req.path, req.body = "POST", base+"/query", []byte(queryPlan)
	case kReport:
		req.method, req.path = "GET", base+"/report"
	case kCreate:
		req.method, req.path, req.body = "POST", "/v1/clusters", c.create
	case kDelete:
		req.method, req.path = "DELETE", base
	case kWhatIf:
		body, err := json.Marshal(whatIfRequest(c.spec, w.candidates, round, seed))
		if err != nil {
			return req, err
		}
		req.method, req.path, req.body = "POST", base+"/whatif", body
	}
	return req, nil
}

// qsWindow is a QS probe's window in a round. kQSAll asks for everything
// observed so far (no bounds, as cmd/loadgen does); kQSFull for the whole
// interval the round's tick just observed, which the server answers from
// the O(1) whole-schedule fast path; kQSSub for the middle half of that
// interval, which it answers from the merge tree.
func qsWindow(k kind, interval time.Duration, round int) (from, to time.Duration) {
	lo := time.Duration(round) * interval
	switch k {
	case kQSFull:
		return lo, lo + interval
	case kQSSub:
		return lo + interval/4, lo + 3*interval/4
	}
	return 0, 0
}

// whatIfRequest scores n candidates: one that favours the first tenant by
// a seeded weight and, for n = 2, the equal-weight default as cmd/loadgen
// sends it.
func whatIfRequest(spec *scenario.Spec, n, round int, seed int64) service.WhatIfRequest {
	names := spec.TenantNames()
	weight := 1 + float64(mix(seed, 11, int64(round))%7)/2
	cands := []map[string]scenario.TenantConfigSpec{{names[0]: {Weight: weight}}}
	if n == 2 {
		cands = append(cands, map[string]scenario.TenantConfigSpec{})
	}
	return service.WhatIfRequest{Candidates: cands}
}

// sampled reports whether a cluster's read responses are kept for the
// correctness check against a local session: a seeded eighth of clusters.
func sampled(seed int64, phaseIdx, ci int) bool {
	return mix(seed, 13, int64(phaseIdx), int64(ci))%8 == 0
}
