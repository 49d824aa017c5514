package core

import (
	"math"
	"reflect"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/linalg"
	"tempo/internal/pald"
	"tempo/internal/qs"
	"tempo/internal/whatif"
	"tempo/internal/workload"
)

// TestImprovementTable (PR-8 satellite): the ~zero-first guard must fire
// before the tail computation, and the tail window math must hold for
// every small history length.
func TestImprovementTable(t *testing.T) {
	hist := func(vals ...float64) []Iteration {
		out := make([]Iteration, len(vals))
		for i, v := range vals {
			out[i] = Iteration{Index: i, Observed: []float64{v}}
		}
		return out
	}
	cases := []struct {
		name    string
		history []Iteration
		want    float64
	}{
		{"len0", hist(), 0},
		{"len1", hist(4), 0},                               // tail is the first observation again
		{"len1-zero-first", hist(0), 0},                    // guard, not 0/0
		{"len2", hist(4, 2), 0.5},                          // tail = last element
		{"len3", hist(4, 3, 2), 0.5},                       // tail index (3*3)/4 = 2
		{"len3-zero-first", hist(0, 5, 5), 0},              // guard fires before tail math
		{"len4", hist(4, 9, 9, 3), 0.25},                   // tail index 3
		{"len4-negative-first", hist(-4, 0, 0, -3), -0.25}, // |first| denominator
	}
	for _, tc := range cases {
		if got := Improvement(tc.history, 0); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: Improvement = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// stripSearch clears the cache-temperature diagnostics so trajectories
// can be compared structurally.
func stripSearch(hist []Iteration) []Iteration {
	for i := range hist {
		hist[i].Search = nil
	}
	return hist
}

// TestIncrementalSearchMatchesExhaustive: with a prune-eligible strategy
// (RandomSearch — no prediction feedback), the warm-started, pruned
// search must walk exactly the trajectory exhaustive scoring walks, and
// the incumbent must warm-start from the cross-tick cache after the
// first iteration.
func TestIncrementalSearchMatchesExhaustive(t *testing.T) {
	const steps = 5
	run := func(exhaustive bool) ([]Iteration, cluster.Config, []*SearchStats) {
		cfg, initial := twoTenantSetup(t, 31)
		rs, err := pald.NewRandomSearch(cfg.Space.Dim(), 0.2, 77)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Strategy = rs
		if exhaustive {
			// An opaque predictor is never cached or pruned: exhaustive
			// scoring, the reference the incremental search must match.
			cfg.Model.Predict = whatif.DefaultPredictor
		}
		c, err := NewController(cfg, initial)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := c.Run(steps)
		if err != nil {
			t.Fatal(err)
		}
		stats := make([]*SearchStats, steps)
		for i := range stats {
			stats[i] = c.Search(i)
		}
		return hist, c.Current(), stats
	}
	exHist, exCfg, _ := run(true)
	incHist, incCfg, incStats := run(false)
	if !reflect.DeepEqual(stripSearch(exHist), stripSearch(incHist)) {
		t.Fatalf("trajectories diverge:\nexhaustive:  %+v\nincremental: %+v", exHist, incHist)
	}
	if !reflect.DeepEqual(exCfg, incCfg) {
		t.Fatalf("final configs diverge:\nexhaustive:  %+v\nincremental: %+v", exCfg, incCfg)
	}
	warm := 0
	for i, st := range incStats {
		if st == nil {
			t.Fatalf("iteration %d has no search stats", i)
		}
		if st.Candidates != st.FullyScored+st.WarmStarted+st.Pruned {
			t.Fatalf("iteration %d stats don't add up: %+v", i, st)
		}
		if st.DecisionNanos != 0 {
			t.Fatalf("iteration %d has nonzero decision latency without a clock", i)
		}
		warm += st.WarmStarted
	}
	if warm == 0 {
		t.Fatal("incumbent never warm-started from the cross-tick cache")
	}
}

// floodedSetup is the contended fixture the pruning proof is exercised
// on: a tiny cluster, one tenant flooding it with identical jobs, and a
// constrained throughput SLO. A candidate capping the tenant to one
// container has a throughput lower bound so far above the incumbent's
// regret that it is provably hopeless — exactly what the QS bounds are
// built to prove without simulating.
func floodedSetup(t *testing.T) (Config, cluster.Config) {
	t.Helper()
	const capacity = 8
	interval := 30 * time.Minute
	trace := &workload.Trace{Name: "flood", Horizon: interval}
	for i := 0; i < 40; i++ {
		job := workload.NewMapReduceJob(
			jobID("flood", i), "batch", 0,
			[]time.Duration{5 * time.Minute, 5 * time.Minute, 5 * time.Minute, 5 * time.Minute},
			nil,
		)
		trace.Jobs = append(trace.Jobs, job)
	}
	if err := trace.Validate(); err != nil {
		t.Fatal(err)
	}
	templates := []qs.Template{
		qs.Template{Queue: "batch", Metric: qs.Throughput}.WithTarget(-8),
	}
	model, err := whatif.FromTrace(templates, trace)
	if err != nil {
		t.Fatal(err)
	}
	model.Horizon = interval
	cfg := Config{
		Space:       cluster.DefaultSpace(capacity, []string{"batch"}),
		Templates:   templates,
		Model:       model,
		Environment: &ReplayEnvironment{Trace: trace},
		Interval:    interval,
		Candidates:  3,
	}
	initial := cluster.Config{TotalContainers: capacity, Tenants: map[string]cluster.TenantConfig{
		"batch": {Weight: 1},
	}}
	return cfg, initial
}

func jobID(prefix string, i int) string {
	return prefix + "-" + string(rune('a'+i/26)) + string(rune('a'+i%26))
}

// cornerStrategy proposes the origin of the normalized cube every time:
// it decodes to a one-container MaxShare cap, the most starved
// configuration the space admits. It implements Strategy but not
// PredictionObserver, so the controller is licensed to prune it.
type cornerStrategy struct{ dim int }

func (s *cornerStrategy) Name() string                           { return "corner" }
func (s *cornerStrategy) Observe(linalg.Vector, []float64) error { return nil }
func (s *cornerStrategy) Propose(_ linalg.Vector, _ []float64, n int) ([]linalg.Vector, error) {
	out := make([]linalg.Vector, n)
	for i := range out {
		out[i] = linalg.NewVector(s.dim)
	}
	return out, nil
}

// TestPruningFiresAndPreservesDecisions: on the flooded fixture the
// hopeless corner candidates must actually be pruned (the bound does
// real work), while the decision trajectory stays identical to
// exhaustive scoring.
func TestPruningFiresAndPreservesDecisions(t *testing.T) {
	const steps = 3
	run := func(exhaustive bool) ([]Iteration, cluster.Config, int) {
		cfg, initial := floodedSetup(t)
		cfg.Strategy = &cornerStrategy{dim: cfg.Space.Dim()}
		if exhaustive {
			cfg.Model.Predict = whatif.DefaultPredictor
		}
		c, err := NewController(cfg, initial)
		if err != nil {
			t.Fatal(err)
		}
		hist, err := c.Run(steps)
		if err != nil {
			t.Fatal(err)
		}
		pruned := 0
		for i := 0; i < steps; i++ {
			pruned += c.Search(i).Pruned
		}
		return hist, c.Current(), pruned
	}
	exHist, exCfg, exPruned := run(true)
	incHist, incCfg, incPruned := run(false)
	if exPruned != 0 {
		t.Fatalf("exhaustive path pruned %d candidates", exPruned)
	}
	if incPruned == 0 {
		t.Fatal("fixture did not trigger pruning; the bound never fired")
	}
	if !reflect.DeepEqual(stripSearch(exHist), stripSearch(incHist)) {
		t.Fatalf("pruning changed the trajectory:\nexhaustive:  %+v\npruned:      %+v", exHist, incHist)
	}
	if !reflect.DeepEqual(exCfg, incCfg) {
		t.Fatalf("pruning changed the final config:\nexhaustive: %+v\npruned:     %+v", exCfg, incCfg)
	}
}

// TestDecisionLatencyUsesInjectedClock: DecisionNanos comes from
// Config.Now and only from it.
func TestDecisionLatencyUsesInjectedClock(t *testing.T) {
	cfg, initial := twoTenantSetup(t, 33)
	var fake int64
	cfg.Now = func() time.Time {
		fake += 1_000_000 // 1ms per reading
		return time.Unix(0, fake)
	}
	c, err := NewController(cfg, initial)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Step(); err != nil {
		t.Fatal(err)
	}
	st := c.Search(0)
	if st == nil || st.DecisionNanos != 1_000_000 {
		t.Fatalf("DecisionNanos = %+v, want exactly one fake-clock delta", st)
	}
	if c.Search(-1) != nil || c.Search(1) != nil {
		t.Fatal("out-of-range Search index returned stats")
	}
}
