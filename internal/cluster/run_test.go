package cluster

import (
	"testing"
	"time"

	"tempo/internal/workload"
)

func runTestTrace(t *testing.T, seed int64, horizon time.Duration) *workload.Trace {
	t.Helper()
	tr, err := workload.Generate(
		[]workload.TenantProfile{
			workload.DeadlineDriven("etl", 0.5),
			workload.BestEffort("adhoc", 0.5),
		},
		workload.GenerateOptions{Horizon: horizon, Seed: seed},
	)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestSimReuseDeterministic locks the arena contract: a Sim dirtied by
// arbitrary other runs must reproduce a fresh simulator's schedule
// bit-for-bit, for both the deterministic predictor and the noisy
// emulation. This is the property that makes pooling invisible to every
// downstream consumer (what-if scoring, goldens, loadgen verification).
func TestSimReuseDeterministic(t *testing.T) {
	traceA := runTestTrace(t, 7, 2*time.Hour)
	traceB := runTestTrace(t, 8, time.Hour)
	cfg := Config{
		TotalContainers: 20,
		Tenants: map[string]TenantConfig{
			"etl":   {Weight: 2, MinShare: 5, SharePreemptTimeout: 5 * time.Minute},
			"adhoc": {Weight: 1},
		},
	}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"predictor", Options{Horizon: time.Hour}},
		{"noisy", Options{Horizon: time.Hour, Noise: DefaultNoise(3)}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			want, err := NewSim().RunInto(traceA, cfg, tc.opts)
			if err != nil {
				t.Fatal(err)
			}
			// want borrows its Sim's arena; that Sim runs nothing else, so
			// it stays valid for the comparisons below.
			sm := NewSim()
			if _, err := sm.RunInto(traceB, cfg, Options{}); err != nil {
				t.Fatal(err) // dirty the arena with a different shape
			}
			for i := 0; i < 3; i++ {
				got, err := sm.RunInto(traceA, cfg, tc.opts)
				if err != nil {
					t.Fatal(err)
				}
				if !got.Equal(want) {
					t.Fatalf("rerun %d on a dirty arena diverged: %v vs %v", i, got, want)
				}
			}
		})
	}
}

// TestSimDetach locks Detach's ownership transfer: a detached schedule
// must survive later runs on the same arena unchanged, while an
// undetached one is recycled (its backing is reused).
func TestSimDetach(t *testing.T) {
	trace := runTestTrace(t, 9, time.Hour)
	cfg := Config{TotalContainers: 10, Tenants: map[string]TenantConfig{"etl": {Weight: 1}, "adhoc": {Weight: 1}}}
	sm := NewSim()
	first, err := sm.RunInto(trace, cfg, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sm.Detach()
	snapshot := &Schedule{
		Capacity: first.Capacity,
		Horizon:  first.Horizon,
		Tasks:    append([]TaskRecord(nil), first.Tasks...),
		Jobs:     append([]JobRecord(nil), first.Jobs...),
	}
	other := runTestTrace(t, 10, 30*time.Minute)
	if _, err := sm.RunInto(other, cfg, Options{}); err != nil {
		t.Fatal(err)
	}
	if !first.Equal(snapshot) {
		t.Fatal("detached schedule was mutated by a later run on the same arena")
	}
}

// allocTrace is a noisy, preemption-enabled two-tenant run: task failures,
// job kills, min-share and share-level preemption all fire, so the
// allocation test below covers every scheduler path.
func allocTrace(tb testing.TB) (*workload.Trace, Config, Options) {
	tb.Helper()
	tr, err := workload.Generate(
		[]workload.TenantProfile{
			workload.DeadlineDriven("etl", 1.2),
			workload.BestEffort("adhoc", 1.5),
		},
		workload.GenerateOptions{Horizon: 2 * time.Hour, Seed: 11},
	)
	if err != nil {
		tb.Fatal(err)
	}
	noise := DefaultNoise(5)
	noise.JobKillProb = 0.1
	cfg := Config{
		TotalContainers: 16,
		Tenants: map[string]TenantConfig{
			"etl":   {Weight: 3, MinShare: 6, MinSharePreemptTimeout: time.Minute, SharePreemptTimeout: 2 * time.Minute},
			"adhoc": {Weight: 1, SharePreemptTimeout: 3 * time.Minute},
		},
	}
	return tr, cfg, Options{Horizon: 2 * time.Hour, Noise: noise}
}

// TestSimRunAllocs locks the arena's steady state: once warmed up, a
// reused Sim runs a full noisy simulation with a small constant number of
// heap allocations (the Schedule header and the tenant sort), however
// many events, attempts and preemptions the run has.
func TestSimRunAllocs(t *testing.T) {
	tr, cfg, opts := allocTrace(t)
	sm := NewSim()
	sched, err := sm.RunInto(tr, cfg, opts)
	if err != nil {
		t.Fatal(err)
	}
	killed := 0
	for _, j := range sched.Jobs {
		if j.Killed {
			killed++
		}
	}
	if sched.PreemptionCount("", nil) == 0 || killed == 0 {
		t.Fatalf("trace does not exercise preemption and kills: %v, %d killed", sched, killed)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := sm.RunInto(tr, cfg, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Fatalf("reused Sim allocated %v times per run, want <= 4", allocs)
	}
	// Detaching hands the record arrays to the caller; the next run sizes
	// fresh ones from the detached schedule once instead of regrowing
	// them by doubling, so a run-and-detach cycle adds just those two.
	allocs = testing.AllocsPerRun(20, func() {
		if _, err := sm.RunInto(tr, cfg, opts); err != nil {
			t.Fatal(err)
		}
		sm.Detach()
	})
	if allocs > 6 {
		t.Fatalf("run-and-detach cycle allocated %v times, want <= 6", allocs)
	}
}

// BenchmarkSimRun measures the Schedule Predictor kernel alone on the
// trace of TestSimRunAllocs, through a reused arena.
func BenchmarkSimRun(b *testing.B) {
	tr, cfg, opts := allocTrace(b)
	sm := NewSim()
	if _, err := sm.RunInto(tr, cfg, opts); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := sm.RunInto(tr, cfg, opts); err != nil {
			b.Fatal(err)
		}
	}
}
