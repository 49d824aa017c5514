package whatif

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
	"tempo/internal/workload"
)

func batchConfigs(capacity int) []cluster.Config {
	var cfgs []cluster.Config
	for _, w := range []float64{0.5, 1, 2, 4} {
		cfgs = append(cfgs, cluster.Config{
			TotalContainers: capacity,
			Tenants:         map[string]cluster.TenantConfig{"A": {Weight: w}},
		})
	}
	return cfgs
}

// TestEvaluateBatchBitIdenticalAcrossParallelism is the tentpole guarantee:
// the same candidate set scored at Parallelism 1 and 8 yields bit-identical
// QS vectors, which also match per-config Evaluate calls.
func TestEvaluateBatchBitIdenticalAcrossParallelism(t *testing.T) {
	m, err := FromProfiles(testTemplates(),
		[]workload.TenantProfile{workload.BestEffort("A", 1)},
		time.Hour, 42)
	if err != nil {
		t.Fatal(err)
	}
	m.Samples = 3
	cfgs := batchConfigs(20)

	m.Parallelism = 1
	seq, err := m.EvaluateBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	m.Parallelism = 8
	par, err := m.EvaluateBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	if len(seq) != len(cfgs) || len(par) != len(cfgs) {
		t.Fatalf("row counts %d/%d, want %d", len(seq), len(par), len(cfgs))
	}
	for c := range cfgs {
		for i := range seq[c] {
			if seq[c][i] != par[c][i] {
				t.Fatalf("config %d objective %d: sequential %v != parallel %v", c, i, seq[c][i], par[c][i])
			}
		}
	}
	// Row i must equal a standalone Evaluate of cfgs[i].
	for c, cfg := range cfgs {
		one, err := m.Evaluate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		for i := range one {
			if one[i] != seq[c][i] {
				t.Fatalf("config %d: Evaluate %v != batch row %v", c, one, seq[c])
			}
		}
	}
}

func TestEvaluateParallelSamplesMatchSequential(t *testing.T) {
	m, err := FromProfiles(testTemplates(),
		[]workload.TenantProfile{workload.BestEffort("A", 1)},
		time.Hour, 7)
	if err != nil {
		t.Fatal(err)
	}
	m.Samples = 6
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	m.Parallelism = 1
	seq, err := m.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	m.Parallelism = 8
	par, err := m.Evaluate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range seq {
		if seq[i] != par[i] {
			t.Fatalf("objective %d: %v != %v", i, seq[i], par[i])
		}
	}
}

func TestSensitivityParallelMatchesSequential(t *testing.T) {
	m, err := FromProfiles(testTemplates(),
		[]workload.TenantProfile{workload.BestEffort("A", 1)},
		time.Hour, 11)
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	m.Parallelism = 1
	mean1, sd1, err := m.Sensitivity(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	m.Parallelism = 8
	mean8, sd8, err := m.Sensitivity(cfg, 5)
	if err != nil {
		t.Fatal(err)
	}
	for i := range mean1 {
		if mean1[i] != mean8[i] || sd1[i] != sd8[i] {
			t.Fatalf("objective %d: (%v,%v) != (%v,%v)", i, mean1[i], sd1[i], mean8[i], sd8[i])
		}
	}
}

func TestEvaluateBatchEmpty(t *testing.T) {
	m, err := FromTrace(testTemplates(), testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	rows, err := m.EvaluateBatch(nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 0 {
		t.Fatalf("rows = %v", rows)
	}
}

// TestEvaluateBatchDeterministicError pins the error-aggregation contract:
// whichever worker hits an error first, the reported failure is always the
// lowest (config, sample) pair — the one sequential evaluation would see.
func TestEvaluateBatchDeterministicError(t *testing.T) {
	boom := errors.New("boom")
	m, err := New(testTemplates(), func(sample int) (*workload.Trace, error) {
		if sample >= 1 {
			return nil, fmt.Errorf("sample %d: %w", sample, boom)
		}
		tr, err := workload.Generate(
			[]workload.TenantProfile{workload.BestEffort("A", 1)},
			workload.GenerateOptions{Horizon: 30 * time.Minute, Seed: 1})
		return tr, err
	})
	if err != nil {
		t.Fatal(err)
	}
	m.Samples = 4
	cfgs := batchConfigs(20)
	m.Parallelism = 1
	_, errSeq := m.EvaluateBatch(cfgs)
	var errPar error
	for trial := 0; trial < 10; trial++ {
		m.Parallelism = 8
		_, errPar = m.EvaluateBatch(cfgs)
		if errSeq == nil || errPar == nil {
			t.Fatalf("expected errors, got %v / %v", errSeq, errPar)
		}
		if errSeq.Error() != errPar.Error() {
			t.Fatalf("nondeterministic error: %q vs %q", errSeq, errPar)
		}
	}
	if !errors.Is(errPar, boom) {
		t.Fatalf("cause lost: %v", errPar)
	}
}

// TestNilScheduleGuard covers a Predict hook that returns (nil, nil): the
// model must fail with a descriptive error instead of panicking in EvalAll.
func TestNilScheduleGuard(t *testing.T) {
	m, err := FromTrace(testTemplates(), testTrace(t))
	if err != nil {
		t.Fatal(err)
	}
	m.Predict = func(*workload.Trace, cluster.Config, time.Duration) (*cluster.Schedule, error) {
		return nil, nil
	}
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	for _, par := range []int{1, 8} {
		m.Parallelism = par
		if _, err := m.Evaluate(cfg); err == nil {
			t.Fatalf("parallelism %d: nil schedule accepted", par)
		} else if want := "nil schedule"; !contains(err.Error(), want) {
			t.Fatalf("parallelism %d: error %q does not mention %q", par, err, want)
		}
	}
}

// TestNilTraceGuard covers a Generator that returns (nil, nil).
func TestNilTraceGuard(t *testing.T) {
	m, err := New(testTemplates(), func(int) (*workload.Trace, error) { return nil, nil })
	if err != nil {
		t.Fatal(err)
	}
	cfg := cluster.Config{TotalContainers: 20, Tenants: map[string]cluster.TenantConfig{"A": {Weight: 1}}}
	if _, err := m.Evaluate(cfg); err == nil {
		t.Fatal("nil trace accepted")
	} else if want := "nil trace"; !contains(err.Error(), want) {
		t.Fatalf("error %q does not mention %q", err, want)
	}
}

// TestMixSeedNoAliasing locks in the FromProfiles seed fix: under the old
// linear stride (base + sample*7919), base 7919 at sample 0 aliased base 0
// at sample 1. The mixed seeds must be pairwise distinct over a dense grid
// of bases and samples.
func TestMixSeedNoAliasing(t *testing.T) {
	if mixSeed(0, 1) == mixSeed(7919, 0) {
		t.Fatal("stride aliasing survived the seed mix")
	}
	seen := make(map[int64][2]int64)
	for base := int64(-50); base < 50; base++ {
		for sample := 0; sample < 100; sample++ {
			s := mixSeed(base, sample)
			if prev, ok := seen[s]; ok {
				t.Fatalf("seed collision: (base %d, sample %d) and (base %d, sample %d)",
					base, sample, prev[0], prev[1])
			}
			seen[s] = [2]int64{base, int64(sample)}
		}
	}
}

// TestFromProfilesSamplesDistinct checks end to end that consecutive
// samples of one model draw different workloads.
func TestFromProfilesSamplesDistinct(t *testing.T) {
	m, err := FromProfiles(testTemplates(),
		[]workload.TenantProfile{workload.BestEffort("A", 1)},
		time.Hour, 0)
	if err != nil {
		t.Fatal(err)
	}
	t0, err := m.Gen(0)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := m.Gen(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(t0.Jobs) == len(t1.Jobs) {
		same := true
		for i := range t0.Jobs {
			if t0.Jobs[i].Submit != t1.Jobs[i].Submit {
				same = false
				break
			}
		}
		if same {
			t.Fatal("samples 0 and 1 drew identical workloads")
		}
	}
}

func contains(s, sub string) bool { return strings.Contains(s, sub) }

// BenchmarkEvaluateBatch measures candidate scoring at several worker
// counts; the repository-level BenchmarkWhatIfBatch exercises the same path
// through the public API on the paper's workload.
func BenchmarkEvaluateBatch(b *testing.B) {
	tr, err := workload.Generate(
		[]workload.TenantProfile{workload.BestEffort("A", 2), workload.DeadlineDriven("B", 2)},
		workload.GenerateOptions{Horizon: 2 * time.Hour, Seed: 3})
	if err != nil {
		b.Fatal(err)
	}
	m, err := FromTrace(testTemplates(), tr)
	if err != nil {
		b.Fatal(err)
	}
	var cfgs []cluster.Config
	for _, w := range []float64{0.25, 0.5, 1, 2, 4, 8, 16, 32} {
		cfgs = append(cfgs, cluster.Config{
			TotalContainers: 30,
			Tenants: map[string]cluster.TenantConfig{
				"A": {Weight: w}, "B": {Weight: 1},
			},
		})
	}
	for _, par := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("parallelism=%d", par), func(b *testing.B) {
			m.Parallelism = par
			for i := 0; i < b.N; i++ {
				if _, err := m.EvaluateBatch(cfgs); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestEvaluateBatchIdenticalCandidatesMatchOracle runs a batch where
// several candidates provably produce the same predicted schedule (the
// predictor ignores config differences beyond the contention point) and
// asserts every row equals the oracle value.
func TestEvaluateBatchIdenticalCandidatesMatchOracle(t *testing.T) {
	profiles := []workload.TenantProfile{workload.BestEffort("a", 1)}
	trace, err := workload.Generate(profiles, workload.GenerateOptions{Horizon: time.Hour, Seed: 5, Name: "cache"})
	if err != nil {
		t.Fatal(err)
	}
	templates := []qs.Template{
		{Queue: "a", Metric: qs.AvgResponseTime},
		{Metric: qs.Utilization},
	}
	model, err := FromTrace(templates, trace)
	if err != nil {
		t.Fatal(err)
	}
	model.Horizon = time.Hour
	model.Parallelism = 4
	base := cluster.Config{TotalContainers: 32, Tenants: map[string]cluster.TenantConfig{"a": {Weight: 1}}}
	// With a single tenant, weight changes cannot alter the schedule: every
	// candidate predicts identical records.
	cfgs := []cluster.Config{base}
	for _, w := range []float64{2, 3, 5} {
		c := base.Clone()
		tc := c.Tenants["a"]
		tc.Weight = w
		c.Tenants["a"] = tc
		cfgs = append(cfgs, c)
	}
	rows, err := model.EvaluateBatch(cfgs)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := cluster.Run(trace, base, cluster.Options{Horizon: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	want := qs.EvalAll(templates, sched, 0, sched.Horizon+time.Nanosecond)
	for r := range rows {
		for i := range want {
			if rows[r][i] != want[i] {
				t.Fatalf("row %d objective %d: got %v, want oracle %v", r, i, rows[r][i], want[i])
			}
		}
	}
}
