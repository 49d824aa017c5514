package whatif

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
	"tempo/internal/workload"
)

// DefaultParallelism returns the worker count that saturates the host: one
// per available CPU. It is the single source of the "0 means all CPUs"
// policy the command-line flags and the root package share.
func DefaultParallelism() int { return runtime.GOMAXPROCS(0) }

// EvaluateBatch predicts the QS vector for every configuration, each
// averaged over the model's sample count. The (configuration, sample)
// pairs are independent, so with Parallelism > 1 they are fanned out over
// a worker pool; the reduction runs in sample order afterwards, so the
// returned vectors are bit-identical to sequential evaluation. Row i of
// the result corresponds to cfgs[i].
//
// EvaluateBatch is stateless: unlike EvaluateSearch it neither reads nor
// fills the cross-tick config tier, so one-off what-if probes pay no
// fingerprinting or config cloning.
func (m *Model) EvaluateBatch(cfgs []cluster.Config) ([][]float64, error) {
	out := make([][]float64, len(cfgs))
	if len(cfgs) == 0 {
		return out, nil
	}
	samples := m.sampleCount()
	vals, err := m.scoreAll(cfgs, samples)
	if err != nil {
		return nil, err
	}
	for c := range cfgs {
		out[c] = averageSamples(vals, c, samples, len(m.Templates))
	}
	return out, nil
}

// Scratch is one worker's reusable evaluation state: a simulation arena
// for the built-in Schedule Predictor and a QS scratch for deriving the
// vector. Workers draw one from scratchPool per batch, so steady-state
// candidate scoring performs near-zero heap allocation; sync.Pool returns
// arenas under memory pressure, bounding retention.
type Scratch struct {
	sim *cluster.Sim
	qs  qs.Scratch
}

var scratchPool = sync.Pool{New: func() any { return &Scratch{sim: cluster.NewSim()} }}

// sampleCount is the number of workload samples each configuration is
// averaged over: the model's Samples, at least 1.
func (m *Model) sampleCount() int {
	return max(m.Samples, 1)
}

// scoreAll draws the sample traces and scores every (configuration,
// sample) pair, returning the QS vectors indexed by cfg*samples + sample.
func (m *Model) scoreAll(cfgs []cluster.Config, samples int) ([][]float64, error) {
	traces, err := m.genSamples(samples, len(cfgs))
	if err != nil {
		return nil, err
	}
	vals := make([][]float64, len(cfgs)*samples)
	pending := make([]int, len(vals))
	for i := range pending {
		pending[i] = i
	}
	if err := m.runPairs(traces, cfgs, samples, pending, vals); err != nil {
		return nil, err
	}
	return vals, nil
}

// runPairs is the one place (configuration, sample) pairs reach the
// predictor. It scores each pending flat index (cfg*samples + sample)
// against the shared sample traces and writes the QS vector into vals.
//
// With Parallelism > 1 the pairs fan out over a work-stealing pool, and
// every pair runs even if one fails — that keeps the winning error
// independent of goroutine timing, and failures are cheap (config
// validation rejects them before any simulation work). The winning error
// is the lowest pending position's, the one sequential evaluation stops
// at, so the result is identical for every worker count.
//
//tempo:hot
func (m *Model) runPairs(traces []*workload.Trace, cfgs []cluster.Config, samples int, pending []int, vals [][]float64) error {
	if len(pending) == 0 {
		return nil
	}
	errs := make([]error, len(pending))
	// A nil custom predictor runs the built-in predictor through a
	// per-worker Scratch: the simulation arena and QS buffers are recycled
	// across that worker's pairs and returned to the shared pool
	// afterwards. Custom predictors manage their own storage.
	pooled := m.Predict == nil
	if workers := workersFor(m.Parallelism, len(pending)); workers > 1 {
		runIndexed(workers, len(pending), pooled, func(pi int, sc *Scratch) {
			idx := pending[pi]
			vals[idx], errs[pi] = m.evalSample(sc, traces[idx%samples], cfgs[idx/samples], idx%samples)
		})
	} else {
		var sc *Scratch
		if pooled {
			sc = scratchPool.Get().(*Scratch)
		}
		for pi, idx := range pending {
			vals[idx], errs[pi] = m.evalSample(sc, traces[idx%samples], cfgs[idx/samples], idx%samples)
			if errs[pi] != nil {
				break
			}
		}
		if pooled {
			scratchPool.Put(sc)
		}
	}
	for pi, err := range errs {
		if err != nil {
			return configErr(err, pending[pi]/samples, len(cfgs))
		}
	}
	return nil
}

// configErr attributes a scoring failure to config c. Single-config calls
// (Evaluate, Sensitivity) omit the index, which would carry no
// information.
func configErr(err error, c, ncfgs int) error {
	if ncfgs > 1 {
		return fmt.Errorf("whatif: config %d: %w", c, err)
	}
	return fmt.Errorf("whatif: %w", err)
}

// averageSamples reduces config c's per-sample rows in sample order. Every
// scoring entry point averages through it, so a configuration scored by
// EvaluateBatch and by EvaluateSearch averages to the identical bits.
func averageSamples(vals [][]float64, c, samples, k int) []float64 {
	acc := make([]float64, k)
	for s := 0; s < samples; s++ {
		v := vals[c*samples+s]
		for i := range acc {
			acc[i] += v[i]
		}
	}
	for i := range acc {
		acc[i] /= float64(samples)
	}
	return acc
}

// workersFor clamps the model's parallelism to the item count; values
// below 2 mean "run on the calling goroutine".
func workersFor(parallelism, items int) int {
	if parallelism > items {
		return items
	}
	return parallelism
}

// runIndexed fans fn(0..n-1) out over a worker pool, work-stealing from a
// shared atomic counter: items vary wildly in cost (candidate
// configurations change queueing behaviour; workload draws vary in size),
// so static striping would leave workers idle. Callers record results and
// errors by index, which keeps their aggregation order deterministic.
// With pooled set, each worker draws a Scratch from the shared pool for
// its whole lifetime and returns it when the fan-out drains, so scratch
// state is reused across all of a worker's items without cross-worker
// sharing; otherwise fn receives a nil Scratch.
func runIndexed(workers, n int, pooled bool, fn func(i int, sc *Scratch)) {
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var sc *Scratch
			if pooled {
				sc = scratchPool.Get().(*Scratch)
				defer scratchPool.Put(sc)
			}
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				fn(i, sc)
			}
		}()
	}
	wg.Wait()
}

// genSamples draws the call's sample traces, one per sample index. The
// S sample traces are generated exactly once, up front, and shared
// (read-only) by every candidate: each candidate scores the same sample
// trace by construction, so regenerating it per (cfg, sample) pair would
// be pure waste. They are retained together for the call's lifetime —
// fine for the control loop's small sample counts; a Sensitivity sweep
// over S draws holds S traces at once. Samples are independent, so with
// Parallelism > 1 they are drawn concurrently; storage is by index and
// the winning error is the lowest sample's, so the result is identical to
// sequential generation. A generation failure hits every candidate at
// that sample, so it is attributed to config 0 of the ncfgs being scored.
func (m *Model) genSamples(samples, ncfgs int) ([]*workload.Trace, error) {
	traces := make([]*workload.Trace, samples)
	errs := make([]error, samples)
	genOne := func(s int) {
		trace, err := m.Gen(s)
		switch {
		case err != nil:
			errs[s] = fmt.Errorf("generating sample %d: %w", s, err)
		case trace == nil:
			errs[s] = fmt.Errorf("generating sample %d: generator returned a nil trace", s)
		default:
			traces[s] = trace
		}
	}
	if workers := workersFor(m.Parallelism, samples); workers > 1 {
		runIndexed(workers, samples, false, func(s int, _ *Scratch) { genOne(s) })
	} else {
		for s := 0; s < samples; s++ {
			if genOne(s); errs[s] != nil {
				break
			}
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, configErr(err, 0, ncfgs)
		}
	}
	return traces, nil
}

// evalSample scores cfg on one workload sample: it predicts the task
// schedule, then derives the full QS vector incrementally — the schedule's
// event stream is built once and shared by every template
// (qs.EvalStream), instead of one record scan per template.
//
// With a non-nil scratch (built-in predictor only; a nil scratch means
// m.Predict is set) the prediction runs in the scratch's simulation arena
// and the QS derivation reuses its buffers: the predicted schedule borrows arena storage, is read only
// here, and is recycled by the worker's next pair. Nothing is cached per
// schedule: deriving the QS vector is a small fraction of a prediction,
// far less than fingerprinting the schedule to look it up would cost.
// Cross-tick reuse happens one level up, in EvaluateSearch's config tier,
// which skips the prediction too.
//
//tempo:hot
func (m *Model) evalSample(sc *Scratch, trace *workload.Trace, cfg cluster.Config, sample int) ([]float64, error) {
	var sched *cluster.Schedule
	var err error
	if sc != nil {
		sched, err = sc.sim.RunInto(trace, cfg, cluster.Options{Horizon: m.Horizon})
	} else {
		sched, err = m.Predict(trace, cfg, m.Horizon)
	}
	if err != nil {
		//tempolint:ignore allocdiscipline cold error exit, never on the scored pair path
		return nil, fmt.Errorf("predicting sample %d: %w", sample, err)
	}
	if sched == nil {
		//tempolint:ignore allocdiscipline cold error exit, never on the scored pair path
		return nil, fmt.Errorf("predicting sample %d: predictor returned a nil schedule", sample)
	}
	if sc != nil {
		return qs.EvalStreamScratch(&sc.qs, m.Templates, sched, 0, sched.Horizon+time.Nanosecond), nil
	}
	return qs.EvalStream(m.Templates, sched, 0, sched.Horizon+time.Nanosecond), nil
}
