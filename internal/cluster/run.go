package cluster

import (
	"sync"

	"tempo/internal/workload"
)

// Sim is a reusable simulation arena for the cluster emulator / Schedule
// Predictor: one value owns a scheduler whose event queue, per-job stage
// bookkeeping, task and attempt records, tenant state, and Schedule
// backing arrays are all recycled across runs. What-if candidate scoring
// runs thousands of simulations per control interval; recycling turns the
// per-run cost from tens of thousands of heap allocations into near zero.
//
// A Sim is not safe for concurrent use; give each worker its own (or Get
// one from the shared pool via Run). Results are bit-identical to a fresh
// simulator's — every piece of per-run state is reset by RunInto, and the
// scenario golden suite locks this.
type Sim struct {
	s    scheduler
	seen map[string]bool // trace validation's reused job-ID set
}

// NewSim returns an empty simulation arena.
func NewSim() *Sim {
	sm := &Sim{seen: map[string]bool{}}
	sm.s.bind()
	return sm
}

// RunInto simulates the trace under the RM configuration, reusing the
// arena's storage, and returns the task schedule. The returned schedule
// BORROWS the arena's backing arrays: it is valid until the next RunInto
// on this Sim, which recycles them. Callers that retain the schedule past
// that point must call Detach first (the schedule then owns its arrays
// and the next run allocates fresh ones). It is deterministic: the same
// inputs (including the noise model's seed) always produce the same
// schedule, whatever the arena previously ran.
func (sm *Sim) RunInto(trace *workload.Trace, cfg Config, opts Options) (*Schedule, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := trace.ValidateWith(sm.seen); err != nil {
		return nil, err
	}
	s := &sm.s
	s.init(trace, cfg, opts)
	sched := s.run()
	// Keep the (possibly grown) record arrays for the next run.
	s.tasksBuf = sched.Tasks
	s.jobsBuf = sched.Jobs
	return sched, nil
}

// Detach releases the last returned schedule from the arena: its record
// arrays will not be recycled, so it stays valid indefinitely. The next
// RunInto allocates fresh backing once, sized to the detached schedule
// plus an eighth, instead of regrowing it by doubling. The hint follows
// the latest run, so a pooled Sim that once ran a large trace does not
// hand oversized arrays to every later caller.
func (sm *Sim) Detach() {
	n, j := len(sm.s.tasksBuf), len(sm.s.jobsBuf)
	sm.s.tasksHint, sm.s.jobsHint = n+n/8, j+j/8
	sm.s.tasksBuf = nil
	sm.s.jobsBuf = nil
}

// simPool recycles simulation arenas across all callers of Run — under
// tempod every shard worker's control-loop ticks and what-if probes draw
// from it, so steady-state serving stops churning the heap. sync.Pool
// drops arenas under memory pressure, bounding retention.
var simPool = sync.Pool{New: func() any { return NewSim() }}

// Run simulates the trace under the RM configuration and returns the task
// schedule. It is deterministic: the same inputs (including the noise
// model's seed) always produce the same schedule.
//
// Run is a thin wrapper over a pooled Sim: the simulation's internal
// bookkeeping is recycled, while the returned schedule is detached (owned
// by the caller, retainable forever). Hot loops that score and discard
// many schedules should hold their own Sim and skip the detach.
func Run(trace *workload.Trace, cfg Config, opts Options) (*Schedule, error) {
	sm := simPool.Get().(*Sim)
	sched, err := sm.RunInto(trace, cfg, opts)
	sm.Detach()
	simPool.Put(sm)
	return sched, err
}

// Predict runs the fast deterministic Schedule Predictor (§7.2): the same
// scheduling code path as Run with noise disabled.
func Predict(trace *workload.Trace, cfg Config) (*Schedule, error) {
	return Run(trace, cfg, Options{})
}
