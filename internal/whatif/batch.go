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
// This is the Optimizer's hot path: one control-loop iteration scores the
// current configuration plus every PALD candidate in a single batch.
func (m *Model) EvaluateBatch(cfgs []cluster.Config) ([][]float64, error) {
	out := make([][]float64, len(cfgs))
	if len(cfgs) == 0 {
		return out, nil
	}
	samples := m.Samples
	if samples < 1 {
		samples = 1
	}
	vecs, err := m.evalPairs(cfgs, samples)
	if err != nil {
		return nil, err
	}
	for c := range cfgs {
		acc := make([]float64, len(m.Templates))
		for s := 0; s < samples; s++ {
			v := vecs[c*samples+s]
			for i := range acc {
				acc[i] += v[i]
			}
		}
		for i := range acc {
			acc[i] /= float64(samples)
		}
		out[c] = acc
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

// evalPairs scores every (configuration, sample) pair and returns the QS
// vectors indexed by cfg*samples + sample. Errors are aggregated
// deterministically, in two tiers: generation errors first (lowest sample
// wins, attributed to config 0), then prediction errors (the pair with the
// lowest flat index wins). Both tiers are independent of worker timing.
//
// The S sample traces are generated exactly once, up front, and shared
// (read-only) by all C candidates. Every candidate scores the same sample
// trace by construction, so regenerating it per (cfg, sample) pair — C×S
// generations instead of S — was pure waste; in windowed mode each
// generation is a full synthetic workload draw.
//
//tempo:hot
func (m *Model) evalPairs(cfgs []cluster.Config, samples int) ([][]float64, error) {
	predict := m.Predict
	if predict == nil {
		predict = DefaultPredictor
	}
	traces, err := m.genSamples(samples, workersFor(m.Parallelism, samples))
	if err != nil {
		// A generation failure hits every candidate at that sample, so the
		// winning (lowest-sample) error is deterministically attributed to
		// config 0 and reported before any prediction error.
		if len(cfgs) > 1 {
			//tempolint:ignore allocdiscipline cold error exit, runs at most once per batch
			return nil, fmt.Errorf("whatif: config 0: %w", err)
		}
		//tempolint:ignore allocdiscipline cold error exit, runs at most once per batch
		return nil, fmt.Errorf("whatif: %w", err)
	}
	total := len(cfgs) * samples
	vecs := make([][]float64, total)
	errs := make([]error, total)
	workers := m.Parallelism
	if workers > total {
		workers = total
	}
	// Workers with a nil custom predictor run the built-in predictor
	// through a per-worker Scratch: the simulation arena and QS buffers are
	// recycled across that worker's pairs and returned to the shared pool
	// afterwards. Custom predictors manage their own storage.
	pooled := m.Predict == nil
	if workers <= 1 {
		var sc *Scratch
		if pooled {
			sc = scratchPool.Get().(*Scratch)
		}
		for idx := 0; idx < total; idx++ {
			vecs[idx], errs[idx] = m.evalSample(predict, sc, traces[idx%samples], cfgs[idx/samples], idx%samples)
			if errs[idx] != nil {
				break
			}
		}
		if pooled {
			scratchPool.Put(sc)
		}
	} else {
		// Every pair runs even if one fails — that keeps the winning error
		// independent of goroutine timing, and failures are cheap (config
		// validation rejects them before any simulation work).
		runIndexedScratch(workers, total, pooled, func(idx int, sc *Scratch) {
			vecs[idx], errs[idx] = m.evalSample(predict, sc, traces[idx%samples], cfgs[idx/samples], idx%samples)
		})
	}
	for idx, err := range errs {
		if err != nil {
			if len(cfgs) > 1 {
				//tempolint:ignore allocdiscipline cold error exit, runs at most once per batch
				return nil, fmt.Errorf("whatif: config %d: %w", idx/samples, err)
			}
			//tempolint:ignore allocdiscipline cold error exit, runs at most once per batch
			return nil, fmt.Errorf("whatif: %w", err)
		}
	}
	return vecs, nil
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
func runIndexed(workers, n int, fn func(i int)) {
	runIndexedScratch(workers, n, false, func(i int, _ *Scratch) { fn(i) })
}

// runIndexedScratch is runIndexed with an optional per-worker Scratch:
// each worker draws one from the shared pool for its whole lifetime and
// returns it when the fan-out drains, so scratch state is reused across
// all of a worker's items without cross-worker sharing.
func runIndexedScratch(workers, n int, pooled bool, fn func(i int, sc *Scratch)) {
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

// genSamples draws the batch's sample traces, one per sample index. The
// traces are shared read-only by every candidate and retained together for
// the batch's lifetime — fine for the control loop's small sample counts;
// a Sensitivity sweep over S draws holds S traces at once. Samples are
// independent, so with workers > 1 they are drawn concurrently; storage is
// by index and the winning error is the lowest sample's, so the result is
// identical to sequential generation.
func (m *Model) genSamples(samples, workers int) ([]*workload.Trace, error) {
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
	if workers <= 1 {
		for s := 0; s < samples; s++ {
			genOne(s)
			if errs[s] != nil {
				return nil, errs[s]
			}
		}
		return traces, nil
	}
	runIndexed(workers, samples, genOne)
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return traces, nil
}

// evalSample scores cfg on one workload sample: it predicts the task
// schedule, then derives the full QS vector incrementally — the schedule's
// event stream is built once and shared by every template
// (qs.EvalStream), instead of one record scan per template.
//
// With a non-nil scratch (built-in predictor only) the prediction runs in
// the scratch's simulation arena and the QS derivation reuses its
// buffers: the predicted schedule borrows arena storage, is read only
// here, and is recycled by the worker's next pair. Nothing is cached per
// schedule: deriving the QS vector is a small fraction of a prediction,
// far less than fingerprinting the schedule to look it up would cost.
// Cross-tick reuse happens one level up, in EvaluateSearch's config tier,
// which skips the prediction too.
//
//tempo:hot
func (m *Model) evalSample(predict Predictor, sc *Scratch, trace *workload.Trace, cfg cluster.Config, sample int) ([]float64, error) {
	var sched *cluster.Schedule
	var err error
	if sc != nil {
		sched, err = sc.sim.RunInto(trace, cfg, cluster.Options{Horizon: m.Horizon})
	} else {
		sched, err = predict(trace, cfg, m.Horizon)
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
