package whatif

import (
	"fmt"
	"sync"
	"time"

	"tempo/internal/cluster"
	"tempo/internal/qs"
	"tempo/internal/workload"
)

// Cross-tick candidate search: EvaluateSearch is EvaluateBatch plus
// memory. The controller's decision loop scores near-identical candidate
// sets tick after tick — the incumbent is always re-scored, proposals
// cluster around it, and in both generator modes the sample traces are
// identical across ticks (replay shares one trace pointer; the profile
// generator redraws bit-identical traces from the same per-sample seed).
// EvaluateBatch deliberately forgets all of that between calls; the
// search state here retains it in a per-sample config tier keyed by
// configuration fingerprint and verified with cluster.Config.Equal. The
// built-in predictor is a pure function of (trace, configuration,
// horizon), so an identical configuration scored against an identical
// trace reuses the whole QS vector with no simulation at all — this is
// what makes warm-starting the incumbent free.
//
// The tier reuses values only after an exact equality check, so reuse is
// bit-identical to recomputation and cannot perturb determinism. Stale
// state is impossible by construction: every call re-reconciles each
// sample's trace identity (pointer fast path, content comparison
// otherwise) and drops that sample's entries when the trace changed, and
// an epoch guard drops everything when the model's shape (template count,
// horizon, sample count) changes.
//
// There is deliberately no tier keyed by predicted schedule: distinct
// configurations that predict the same schedule could share the QS
// derivation, but fingerprinting every schedule costs more than the
// derivation it would save.
//
// EvaluateSearch optionally prunes candidates through qs.BoundSet lower
// bounds before simulating them — see the method comment for the
// contract the caller's keep callback must honor to stay ranking-safe.

// maxSearchConfigPerSample caps the config tier. 64 covers many ticks of
// candidate churn around the incumbent; the tier is FIFO, so a
// wandering optimizer evicts its oldest points first.
const maxSearchConfigPerSample = 64

// cfgCacheEntry is one config-tier record: the exact configuration (a
// clone, so later caller mutations cannot corrupt the key) and its
// per-sample QS vector.
type cfgCacheEntry struct {
	fp   uint64
	cfg  cluster.Config
	vals []float64
}

// searchSample is one sample's slice of the search state.
type searchSample struct {
	trace  *workload.Trace
	bounds *qs.BoundSet
	cfgs   []cfgCacheEntry
}

// searchState is the cross-tick memory behind EvaluateSearch, which
// touches it only from the calling goroutine, never from the scoring
// workers. The mutex guards the slices; entries are immutable once
// appended.
type searchState struct {
	mu        sync.Mutex
	templates int
	horizon   time.Duration
	nsamples  int
	samples   []searchSample
}

// reconcile aligns the state with this call's model shape and sample
// traces, invalidating exactly what changed: everything on a shape
// (epoch) change, one sample's entries when that sample's trace content
// changed. Trace identity is the pointer when generators hand back the
// same trace (replay mode) and a content comparison otherwise (profile
// mode redraws an equal trace each call; a regenerated different trace
// fails the comparison and drops the sample's entries).
func (st *searchState) reconcile(templates int, horizon time.Duration, traces []*workload.Trace) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if st.templates != templates || st.horizon != horizon || st.nsamples != len(traces) {
		st.templates, st.horizon, st.nsamples = templates, horizon, len(traces)
		st.samples = make([]searchSample, len(traces))
	}
	for s, tr := range traces {
		cur := &st.samples[s]
		if cur.trace == tr {
			continue
		}
		if cur.trace != nil && cur.trace.Equal(tr) {
			cur.trace = tr
			continue
		}
		*cur = searchSample{trace: tr}
	}
}

// lookupConfig returns the cached per-sample QS vector for an exactly
// equal configuration, or nil. Called serially by EvaluateSearch, never
// from workers.
func (st *searchState) lookupConfig(sample int, fp uint64, cfg *cluster.Config) []float64 {
	st.mu.Lock()
	defer st.mu.Unlock()
	for _, e := range st.samples[sample].cfgs {
		if e.fp == fp && e.cfg.Equal(*cfg) {
			return e.vals
		}
	}
	return nil
}

// storeConfig records a freshly scored (configuration, sample) vector,
// evicting FIFO at capacity.
func (st *searchState) storeConfig(sample int, fp uint64, cfg cluster.Config, vals []float64) {
	st.mu.Lock()
	defer st.mu.Unlock()
	sm := &st.samples[sample]
	if len(sm.cfgs) >= maxSearchConfigPerSample {
		sm.cfgs = sm.cfgs[1:]
	}
	sm.cfgs = append(sm.cfgs, cfgCacheEntry{fp: fp, cfg: cfg.Clone(), vals: vals})
}

// boundsFor lazily builds the sample's qs.BoundSet; nil when the horizon
// is unbounded (bounds need a finite prediction window).
func (st *searchState) boundsFor(sample int, templates []qs.Template, horizon time.Duration) *qs.BoundSet {
	st.mu.Lock()
	defer st.mu.Unlock()
	sm := &st.samples[sample]
	if sm.bounds == nil {
		sm.bounds = qs.NewBoundSet(templates, sm.trace, horizon)
	}
	return sm.bounds
}

// EvaluateSearch scores candidate configurations like EvaluateBatch —
// row i of preds is cfgs[i] averaged over the model's samples, and every
// returned prediction is bit-identical to what EvaluateBatch would
// produce — but with cross-tick reuse and optional bound-based pruning.
// cfgs[0] must be the incumbent (the currently applied configuration);
// it is always fully resolved first and its averaged prediction becomes
// the pruning baseline.
//
// keep, when non-nil, is consulted for each candidate i >= 1 before any
// simulation work, with a coordinatewise lower bound on cfgs[i]'s
// averaged QS vector (optimistic: no schedule under cfgs[i] can score
// below it) and cfgs[0]'s actual averaged prediction. Returning false
// prunes the candidate: preds[i] stays nil and the candidate is never
// simulated. Callers guarantee ranking safety — keep must return true
// for any candidate whose bound leaves it any chance of being selected.
// Both vectors are only valid during the call. Bounds require the
// built-in predictor and a finite horizon; otherwise keep is never
// invoked and no candidate is pruned.
//
// fresh[i] counts the samples whose predictor actually ran for cfgs[i];
// reused[i] counts config-tier hits (no simulation at all). A warm-
// started candidate has fresh[i] == 0 with a non-nil preds[i].
//
// The model's search state is only touched by this method. Calls on the
// same Model must not be concurrent (the control loop serializes
// decisions); EvaluateBatch remains stateless and safe alongside.
func (m *Model) EvaluateSearch(cfgs []cluster.Config, keep func(i int, lower, base []float64) bool) (preds [][]float64, fresh, reused []int, err error) {
	preds = make([][]float64, len(cfgs))
	fresh = make([]int, len(cfgs))
	reused = make([]int, len(cfgs))
	if len(cfgs) == 0 {
		return preds, fresh, reused, nil
	}
	samples := m.Samples
	if samples < 1 {
		samples = 1
	}
	traces, err := m.genSamples(samples, workersFor(m.Parallelism, samples))
	if err != nil {
		if len(cfgs) > 1 {
			return nil, nil, nil, fmt.Errorf("whatif: config 0: %w", err)
		}
		return nil, nil, nil, fmt.Errorf("whatif: %w", err)
	}
	if m.search == nil {
		m.search = newSearchState()
	}
	st := m.search
	st.reconcile(len(m.Templates), m.Horizon, traces)

	// The config tier (and the bounds that lean on predictor purity) only
	// apply to the built-in predictor; a custom Predict is an opaque
	// function we must call per (config, sample) pair.
	cacheable := m.Predict == nil
	fps := make([]uint64, len(cfgs))
	if cacheable {
		for i := range cfgs {
			fps[i] = cfgs[i].Fingerprint()
		}
	}

	vals := make([][]float64, len(cfgs)*samples)

	// resolve fully scores the given candidates: config-tier lookups
	// first (serial, so fresh/reused counts are deterministic), then one
	// fan-out over the missing (config, sample) pairs, then config-tier
	// stores in deterministic pair order.
	resolve := func(cands []int) error {
		var pending []int
		for _, c := range cands {
			for s := 0; s < samples; s++ {
				idx := c*samples + s
				if cacheable {
					if v := st.lookupConfig(s, fps[c], &cfgs[c]); v != nil {
						vals[idx] = v
						reused[c]++
						continue
					}
				}
				pending = append(pending, idx)
			}
		}
		if err := m.runSearchPairs(traces, cfgs, samples, pending, vals); err != nil {
			return err
		}
		for _, idx := range pending {
			fresh[idx/samples]++
			if cacheable {
				st.storeConfig(idx%samples, fps[idx/samples], cfgs[idx/samples], vals[idx])
			}
		}
		return nil
	}

	if err := resolve([]int{0}); err != nil {
		return nil, nil, nil, err
	}
	preds[0] = averageSamples(vals, 0, samples, len(m.Templates))

	pruned := make([]bool, len(cfgs))
	if keep != nil && cacheable && m.Horizon > 0 {
		for i := 1; i < len(cfgs); i++ {
			// Average the per-sample lower bounds with the same summation
			// order predictions use: float addition and division by a
			// positive count are monotone, so the averaged bound stays a
			// coordinatewise lower bound on the averaged prediction.
			lower := make([]float64, len(m.Templates))
			for s := 0; s < samples; s++ {
				lb := st.boundsFor(s, m.Templates, m.Horizon).Lower(&cfgs[i])
				for k := range lower {
					lower[k] += lb[k]
				}
			}
			for k := range lower {
				lower[k] /= float64(samples)
			}
			pruned[i] = !keep(i, lower, preds[0])
		}
	}

	var survivors []int
	for i := 1; i < len(cfgs); i++ {
		if !pruned[i] {
			survivors = append(survivors, i)
		}
	}
	if err := resolve(survivors); err != nil {
		return nil, nil, nil, err
	}
	for _, i := range survivors {
		preds[i] = averageSamples(vals, i, samples, len(m.Templates))
	}
	return preds, fresh, reused, nil
}

func newSearchState() *searchState { return &searchState{} }

// runSearchPairs fans the pending flat (config*samples + sample) indexes
// out over the worker pool, writing each pair's QS vector into vals.
// Error aggregation matches evalPairs: every pair runs even if one
// fails, and the winning error is the lowest pending position's, so the
// result is independent of worker timing.
func (m *Model) runSearchPairs(traces []*workload.Trace, cfgs []cluster.Config, samples int, pending []int, vals [][]float64) error {
	if len(pending) == 0 {
		return nil
	}
	predict := m.Predict
	if predict == nil {
		predict = DefaultPredictor
	}
	errs := make([]error, len(pending))
	pooled := m.Predict == nil
	workers := m.Parallelism
	if workers > len(pending) {
		workers = len(pending)
	}
	if workers <= 1 {
		var sc *Scratch
		if pooled {
			sc = scratchPool.Get().(*Scratch)
		}
		for pi, idx := range pending {
			vals[idx], errs[pi] = m.evalSample(predict, sc, traces[idx%samples], cfgs[idx/samples], idx%samples)
			if errs[pi] != nil {
				break
			}
		}
		if pooled {
			scratchPool.Put(sc)
		}
	} else {
		runIndexedScratch(workers, len(pending), pooled, func(pi int, sc *Scratch) {
			idx := pending[pi]
			vals[idx], errs[pi] = m.evalSample(predict, sc, traces[idx%samples], cfgs[idx/samples], idx%samples)
		})
	}
	for pi, err := range errs {
		if err != nil {
			if len(cfgs) > 1 {
				return fmt.Errorf("whatif: config %d: %w", pending[pi]/samples, err)
			}
			return fmt.Errorf("whatif: %w", err)
		}
	}
	return nil
}

// averageSamples reduces config c's per-sample rows exactly like
// EvaluateBatch does — same summation order, so a config resolved
// through EvaluateSearch averages to the identical bits.
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
