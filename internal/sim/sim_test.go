package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineZeroValueUsable(t *testing.T) {
	var e Engine
	if e.Now() != 0 {
		t.Fatalf("Now() = %v, want 0", e.Now())
	}
	if e.Step() {
		t.Fatal("Step() on empty engine returned true")
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	var e Engine
	var got []time.Duration
	times := []time.Duration{5, 1, 3, 2, 4}
	for _, d := range times {
		d := d
		e.At(d, 0, func(now time.Duration) { got = append(got, now) })
	}
	e.Run()
	want := []time.Duration{1, 2, 3, 4, 5}
	if len(got) != len(want) {
		t.Fatalf("fired %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d fired at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPriorityBreaksTies(t *testing.T) {
	var e Engine
	var order []int
	e.At(10, 2, func(time.Duration) { order = append(order, 2) })
	e.At(10, 0, func(time.Duration) { order = append(order, 0) })
	e.At(10, 1, func(time.Duration) { order = append(order, 1) })
	e.Run()
	for i, v := range order {
		if i != v {
			t.Fatalf("order = %v, want [0 1 2]", order)
		}
	}
}

func TestSequenceBreaksEqualPriorityTies(t *testing.T) {
	var e Engine
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(7, 0, func(time.Duration) { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if i != v {
			t.Fatalf("insertion order not preserved: %v", order)
		}
	}
}

func TestCancelSkipsEvent(t *testing.T) {
	var e Engine
	fired := false
	ev := e.At(1, 0, func(time.Duration) { fired = true })
	ev.Cancel()
	if !ev.Canceled() {
		t.Fatal("Canceled() = false after Cancel")
	}
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
	if e.Fired() != 0 {
		t.Fatalf("Fired() = %d, want 0", e.Fired())
	}
}

func TestSchedulingInPastClampsToNow(t *testing.T) {
	var e Engine
	var at time.Duration = -1
	e.At(10, 0, func(now time.Duration) {
		e.At(3, 0, func(inner time.Duration) { at = inner })
	})
	e.Run()
	if at != 10 {
		t.Fatalf("past event fired at %v, want clamped to 10", at)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	var e Engine
	var at time.Duration
	e.At(4, 0, func(now time.Duration) {
		e.After(6, 0, func(inner time.Duration) { at = inner })
	})
	e.Run()
	if at != 10 {
		t.Fatalf("After fired at %v, want 10", at)
	}
}

func TestRunUntilStopsAtHorizon(t *testing.T) {
	var e Engine
	var fired []time.Duration
	for _, d := range []time.Duration{1, 5, 9, 11, 20} {
		e.At(d, 0, func(now time.Duration) { fired = append(fired, now) })
	}
	e.RunUntil(10)
	if len(fired) != 3 {
		t.Fatalf("fired %d events before horizon, want 3 (%v)", len(fired), fired)
	}
	if e.Now() != 10 {
		t.Fatalf("Now() = %v, want 10", e.Now())
	}
	if e.Len() != 2 {
		t.Fatalf("Len() = %d pending, want 2", e.Len())
	}
	e.RunUntil(25)
	if len(fired) != 5 {
		t.Fatalf("fired %d events total, want 5", len(fired))
	}
}

func TestRunUntilAdvancesClockWithEmptyQueue(t *testing.T) {
	var e Engine
	e.RunUntil(42)
	if e.Now() != 42 {
		t.Fatalf("Now() = %v, want 42", e.Now())
	}
}

func TestEventsScheduledDuringRunFire(t *testing.T) {
	var e Engine
	count := 0
	var chain func(now time.Duration)
	chain = func(now time.Duration) {
		count++
		if count < 100 {
			e.After(1, 0, chain)
		}
	}
	e.At(0, 0, chain)
	e.Run()
	if count != 100 {
		t.Fatalf("chain fired %d times, want 100", count)
	}
	if e.Now() != 99 {
		t.Fatalf("Now() = %v, want 99", e.Now())
	}
}

func TestFiredCounts(t *testing.T) {
	var e Engine
	for i := 0; i < 5; i++ {
		e.At(time.Duration(i), 0, func(time.Duration) {})
	}
	e.Run()
	if e.Fired() != 5 {
		t.Fatalf("Fired() = %d, want 5", e.Fired())
	}
}

// Property: events always fire in nondecreasing (Time, Priority) order no
// matter the insertion order.
func TestPropertyFireOrderSorted(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		type key struct {
			t time.Duration
			p int
		}
		var fired []key
		count := int(n%64) + 1
		for i := 0; i < count; i++ {
			tm := time.Duration(rng.Intn(50))
			pr := rng.Intn(5)
			e.At(tm, pr, func(now time.Duration) {
				fired = append(fired, key{tm, pr})
			})
		}
		e.Run()
		if len(fired) != count {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool {
			if fired[i].t != fired[j].t {
				return fired[i].t < fired[j].t
			}
			return fired[i].p < fired[j].p
		})
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: canceling a random subset fires exactly the complement.
func TestPropertyCancelComplement(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		count := int(n%32) + 1
		events := make([]*Event, count)
		firedCount := 0
		for i := 0; i < count; i++ {
			events[i] = e.At(time.Duration(rng.Intn(20)), 0, func(time.Duration) { firedCount++ })
		}
		canceled := 0
		for _, ev := range events {
			if rng.Intn(2) == 0 {
				ev.Cancel()
				canceled++
			}
		}
		e.Run()
		return firedCount == count-canceled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestRescheduleMovesEvent(t *testing.T) {
	var e Engine
	var at time.Duration = -1
	ev := e.At(5, 0, func(now time.Duration) { at = now })
	if !e.Reschedule(ev, 12) {
		t.Fatal("Reschedule on pending event returned false")
	}
	e.Run()
	if at != 12 {
		t.Fatalf("rescheduled event fired at %v, want 12", at)
	}
}

func TestRescheduleRevivesCanceledEvent(t *testing.T) {
	var e Engine
	fired := 0
	ev := e.At(5, 0, func(time.Duration) { fired++ })
	ev.Cancel()
	if !e.Reschedule(ev, 7) {
		t.Fatal("Reschedule on canceled-but-unpopped event returned false")
	}
	if ev.Canceled() {
		t.Fatal("Reschedule did not clear the canceled mark")
	}
	e.Run()
	if fired != 1 {
		t.Fatalf("revived event fired %d times, want 1", fired)
	}
}

func TestRescheduleRejectsFiredEvent(t *testing.T) {
	var e Engine
	ev := e.At(1, 0, func(time.Duration) {})
	e.Run()
	if e.Reschedule(ev, 5) {
		t.Fatal("Reschedule on already-fired event returned true")
	}
	if e.Len() != 0 {
		t.Fatalf("Len() = %d after rejected reschedule, want 0", e.Len())
	}
}

func TestRescheduleRejectsPoppedCanceledEvent(t *testing.T) {
	var e Engine
	ev := e.At(1, 0, func(time.Duration) {})
	ev.Cancel()
	e.At(2, 0, func(time.Duration) {})
	e.Run() // pops and discards the canceled event
	if e.Reschedule(ev, 5) {
		t.Fatal("Reschedule on discarded event returned true")
	}
}

func TestRescheduleClampsToNow(t *testing.T) {
	var e Engine
	var at time.Duration = -1
	var ev *Event
	ev = e.At(20, 0, func(now time.Duration) { at = now })
	e.At(10, 0, func(now time.Duration) {
		e.Reschedule(ev, 3) // in the past: clamps to now
	})
	e.Run()
	if at != 10 {
		t.Fatalf("past-rescheduled event fired at %v, want clamped to 10", at)
	}
}

// Reschedule assigns a fresh sequence number, so a rescheduled event
// tie-breaks exactly like Cancel followed by a new At would: later than
// everything scheduled before the reschedule, earlier than everything after.
func TestRescheduleTieBreaksLikeFreshEvent(t *testing.T) {
	var e Engine
	var order []string
	evA := e.At(1, 0, func(time.Duration) { order = append(order, "a") })
	e.At(10, 0, func(time.Duration) { order = append(order, "b") })
	e.Reschedule(evA, 10)
	e.At(10, 0, func(time.Duration) { order = append(order, "c") })
	e.Run()
	want := []string{"b", "a", "c"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Property: a random mix of cancels and reschedules fires each live event
// exactly once, at its final time.
func TestPropertyRescheduleFiresOnceAtFinalTime(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		count := int(n%24) + 1
		fired := make([]int, count)
		finalAt := make([]time.Duration, count)
		firedAt := make([]time.Duration, count)
		events := make([]*Event, count)
		for i := 0; i < count; i++ {
			i := i
			finalAt[i] = time.Duration(rng.Intn(30))
			events[i] = e.At(finalAt[i], 0, func(now time.Duration) {
				fired[i]++
				firedAt[i] = now
			})
		}
		live := make([]bool, count)
		for i := range live {
			live[i] = true
		}
		for op := 0; op < count*2; op++ {
			i := rng.Intn(count)
			switch rng.Intn(3) {
			case 0:
				events[i].Cancel()
				live[i] = false
			case 1:
				to := time.Duration(rng.Intn(30))
				if e.Reschedule(events[i], to) {
					finalAt[i] = to
					live[i] = true
				}
			}
		}
		e.Run()
		for i := range fired {
			if !live[i] && fired[i] != 0 {
				return false
			}
			if live[i] && (fired[i] != 1 || firedAt[i] != finalAt[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// refEvent is the reference model's view of one scheduled event.
type refEvent struct {
	t        time.Duration
	prio     int
	seq      uint64
	canceled bool
	queued   bool
}

// refEngine is a deliberately naive model of Engine: every dispatch scans
// all queued events for the (Time, Priority, seq) minimum. Canceled events
// leave the queue exactly when the engine would discard them — when they
// reach the front during Step or RunUntil — so Reschedule's "still pending"
// answer is modeled too.
type refEngine struct {
	evs   []refEvent
	now   time.Duration
	seq   uint64
	order []int
	spawn func(r *refEngine, id int)
}

func (r *refEngine) at(t time.Duration, prio int) int {
	if t < r.now {
		t = r.now
	}
	r.evs = append(r.evs, refEvent{t: t, prio: prio, seq: r.seq, queued: true})
	r.seq++
	return len(r.evs) - 1
}

func (r *refEngine) reschedule(id int, t time.Duration) bool {
	ev := &r.evs[id]
	if !ev.queued {
		return false
	}
	if t < r.now {
		t = r.now
	}
	ev.t, ev.canceled, ev.seq = t, false, r.seq
	r.seq++
	return true
}

// front returns the queued minimum, or -1.
func (r *refEngine) front() int {
	best := -1
	for i := range r.evs {
		e := &r.evs[i]
		if !e.queued {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		b := &r.evs[best]
		if e.t < b.t || (e.t == b.t && (e.prio < b.prio || (e.prio == b.prio && e.seq < b.seq))) {
			best = i
		}
	}
	return best
}

func (r *refEngine) dispatch(id int) {
	r.evs[id].queued = false
	r.now = r.evs[id].t
	r.order = append(r.order, id)
	r.spawn(r, id)
}

func (r *refEngine) step() bool {
	for {
		id := r.front()
		if id < 0 {
			return false
		}
		if r.evs[id].canceled {
			r.evs[id].queued = false
			continue
		}
		r.dispatch(id)
		return true
	}
}

func (r *refEngine) runUntil(h time.Duration) {
	for {
		id := r.front()
		if id < 0 {
			break
		}
		if r.evs[id].canceled {
			r.evs[id].queued = false
			continue
		}
		if r.evs[id].t > h {
			break
		}
		r.dispatch(id)
	}
	if r.now < h {
		r.now = h
	}
}

// Property: under a random mix of At, AtArg, Cancel, Reschedule, Step and
// RunUntil — with handlers that schedule further events mid-run — the
// engine's full dispatch sequence, its clock, and every Reschedule verdict
// match a reference that sorts the live events by (Time, Priority, seq).
func TestPropertyDispatchOrderMatchesReference(t *testing.T) {
	// spawnChild decides, from the dispatched event's id alone, whether its
	// handler schedules a follow-up event, so both sides make the same call.
	spawnChild := func(id int) (bool, time.Duration, int) {
		return id%4 == 1, time.Duration(id % 5), id % 3
	}
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var e Engine
		var events []*Event
		var order []int
		ids := make([]int, 0, 1024)
		var handler func(now time.Duration, arg any)
		handler = func(now time.Duration, arg any) {
			id := *arg.(*int)
			order = append(order, id)
			if ok, d, p := spawnChild(id); ok && len(events) < cap(ids) {
				ids = append(ids, len(events))
				events = append(events, e.AtArg(now+d, p, handler, &ids[len(ids)-1]))
			}
		}
		ref := &refEngine{spawn: func(r *refEngine, id int) {
			if ok, d, p := spawnChild(id); ok && len(r.evs) < cap(ids) {
				r.at(r.now+d, p)
			}
		}}
		ops := int(n%96) + 8
		for op := 0; op < ops; op++ {
			switch k := rng.Intn(6); {
			case k <= 1 || len(events) == 0:
				tm, p := time.Duration(rng.Intn(40)), rng.Intn(3)
				id := len(events)
				if k == 0 {
					events = append(events, e.At(tm, p, func(now time.Duration) { handler(now, &id) }))
				} else {
					ids = append(ids, id)
					events = append(events, e.AtArg(tm, p, handler, &ids[len(ids)-1]))
				}
				ref.at(tm, p)
			case k == 2:
				i := rng.Intn(len(events))
				events[i].Cancel()
				ref.evs[i].canceled = true
			case k == 3:
				i := rng.Intn(len(events))
				tm := time.Duration(rng.Intn(40))
				if e.Reschedule(events[i], tm) != ref.reschedule(i, tm) {
					return false
				}
			case k == 4:
				if e.Step() != ref.step() {
					return false
				}
			default:
				h := e.Now() + time.Duration(rng.Intn(10))
				e.RunUntil(h)
				ref.runUntil(h)
			}
			if e.Now() != ref.now || len(events) != len(ref.evs) {
				return false
			}
		}
		e.Run()
		ref.runUntil(1 << 62)
		if len(order) != len(ref.order) {
			return false
		}
		for i := range order {
			if order[i] != ref.order[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkEngineScheduleAndRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		var e Engine
		for j := 0; j < 1000; j++ {
			e.At(time.Duration(j%97), j%3, func(time.Duration) {})
		}
		e.Run()
	}
}
