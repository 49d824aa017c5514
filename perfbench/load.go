package main

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// result is the outcome of one request.
type result struct {
	// lat is the request's latency: from the time it was due for the first
	// request of a paced unit, from its send otherwise.
	lat time.Duration
	// lag is how late the generator sent a paced request whose client was
	// idle before it was due: the generator's own lateness, not the
	// server's. It is -1 for requests that were already overdue when their
	// client came free (the server's backlog, counted in lat) and for
	// closed-loop and follow-on requests.
	lag  time.Duration
	err  error
	body []byte // kept only for requests keep selects
}

// phaseRun is one executed phase.
type phaseRun struct {
	units   []unit
	res     []result
	elapsed time.Duration
}

// schedule says when the unit starting at request k of a phase is due, at
// a fixed aggregate request rate. The zero value is the closed loop: every
// unit is due when its client is ready to send it.
type schedule struct {
	start    time.Time
	interval time.Duration
}

func (s schedule) paced() bool { return s.interval > 0 }

func (s schedule) due(k int) time.Time { return s.start.Add(time.Duration(k) * s.interval) }

// newSchedule paces requests at rate per second, the first due shortly
// after the call.
func newSchedule(rate float64) schedule {
	return schedule{
		start:    time.Now().Add(5 * time.Millisecond),
		interval: time.Duration(float64(time.Second) / rate),
	}
}

// dueLatency measures a request from the time it was due, so a stall
// charges its wait to every request scheduled behind it. sent is when the
// request went out; the returned lag is the generator's own lateness when
// the client was idle before due (slept until due), else -1.
func dueLatency(due, idleSince, sent, done time.Time) (lat, lag time.Duration) {
	lat = done.Sub(due)
	lag = -1
	if !idleSince.After(due) {
		lag = sent.Sub(due)
	}
	return lat, lag
}

// runPhase sends every unit over the clients, one goroutine per client,
// and waits for all of them. keep selects requests whose response bodies
// are retained for the correctness checks.
func runPhase(clients []*client, units []unit, n int, sched schedule, keep func(u *unit, r *request) bool) *phaseRun {
	pr := &phaseRun{units: units, res: make([]result, n)}
	start := time.Now()
	dispatch(units, len(clients), func(worker int, u *unit) {
		for j := range u.reqs {
			// A paced unit is due at its first request's slot; the rest of
			// the unit follows on as each reply arrives, as a client that
			// ticks and then probes would send them.
			var due time.Time
			if sched.paced() && j == 0 {
				due = sched.due(u.first)
			}
			r := &u.reqs[j]
			pr.res[u.first+j] = send(clients[worker], due, r, keep(u, r))
		}
	})
	pr.elapsed = time.Since(start)
	return pr
}

// dispatch runs fn over the units in order on the given number of worker
// goroutines and returns once all are done. A unit never starts before the
// same cluster's previous unit has finished.
func dispatch(units []unit, workers int, fn func(worker int, u *unit)) {
	// done[i] closes when unit i finishes; wait[i] is the same cluster's
	// previous unit.
	done := make([]chan struct{}, len(units))
	wait := make([]chan struct{}, len(units))
	last := map[int]chan struct{}{}
	for i := range units {
		done[i] = make(chan struct{})
		wait[i] = last[units[i].cluster]
		last[units[i].cluster] = done[i]
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(units); i = int(next.Add(1)) - 1 {
				if wait[i] != nil {
					<-wait[i]
				}
				fn(w, &units[i])
				close(done[i])
			}
		}(w)
	}
	wg.Wait()
}

// send issues one request, first sleeping until due unless due is zero
// (closed loop, or a request that follows on within its unit).
func send(c *client, due time.Time, r *request, keep bool) result {
	ready := time.Now()
	paced := !due.IsZero()
	if paced {
		if d := due.Sub(ready); d > 0 {
			time.Sleep(d)
		}
	}
	sent := time.Now()
	status, body, err := c.do(r.method, r.path, r.body)
	done := time.Now()
	res := result{lat: done.Sub(sent), lag: -1}
	if paced {
		res.lat, res.lag = dueLatency(due, ready, sent, done)
	}
	switch {
	case err != nil:
		res.err = fmt.Errorf("%s %s: %w", r.method, r.path, err)
	case status/100 != 2:
		res.err = fmt.Errorf("%s %s: status %d: %s", r.method, r.path, status, body)
	case keep:
		res.body = body
	}
	return res
}

// phaseStats tallies phase runs' latencies by class and their failures.
type phaseStats struct {
	byClass  map[string][]time.Duration
	lags     []time.Duration
	ticks    int
	attempts int
	failed   int
	firstErr error
}

func statsOf(runs ...*phaseRun) phaseStats {
	st := phaseStats{byClass: map[string][]time.Duration{}}
	for _, pr := range runs {
		for _, u := range pr.units {
			for j, r := range u.reqs {
				res := pr.res[u.first+j]
				st.attempts++
				if res.err != nil {
					st.failed++
					if st.firstErr == nil {
						st.firstErr = res.err
					}
					continue
				}
				if r.kind == kTick {
					st.ticks++
				}
				st.byClass[r.kind.class()] = append(st.byClass[r.kind.class()], res.lat)
				if res.lag >= 0 {
					st.lags = append(st.lags, res.lag)
				}
			}
		}
	}
	return st
}
