package main

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"tempo/internal/service"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{0, 0}, {10, 0}, {11, 100 * (1 - 10.0/11)}, {500, 98}, {1000, 99}, {2000, 99.5}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); math.Abs(got-c.want) > 1e-9 {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func samples(n int) []time.Duration {
	s := make([]time.Duration, n)
	for i := range s {
		// Reverse order: summarize must sort.
		s[i] = time.Duration(n-i) * time.Millisecond
	}
	return s
}

func TestSummarizeThousandSamples(t *testing.T) {
	l := summarize(samples(1000))
	if l.n != 1000 {
		t.Fatalf("n = %d, want 1000", l.n)
	}
	if l.p50 != 500*time.Millisecond || l.p90 != 900*time.Millisecond {
		t.Errorf("p50 %v, p90 %v; want 500ms, 900ms", l.p50, l.p90)
	}
	if l.tailP != 99 || l.p99 != 990*time.Millisecond {
		t.Errorf("tail p%v p99 %v; want p99 = 990ms", l.tailP, l.p99)
	}
	// Exactly ten samples lie beyond the tail sample.
	if l.tail != 990*time.Millisecond {
		t.Errorf("tail %v, want 990ms (ten samples beyond)", l.tail)
	}
}

func TestSummarizeTooFewForP99(t *testing.T) {
	// From 500 samples the p99 has only five beyond it: tailP says so.
	l := summarize(samples(500))
	if l.tailP != 98 || l.tail != 490*time.Millisecond {
		t.Errorf("tail p%v = %v, want p98 = 490ms", l.tailP, l.tail)
	}
	if l := summarize(samples(5)); l.tailP != 0 || l.tail != 0 || l.n != 5 {
		t.Errorf("5 samples: %+v, want no tail and n = 5", l)
	}
}

func TestDueLatency(t *testing.T) {
	due := time.Unix(100, 0)
	ms := func(n int) time.Time { return due.Add(time.Duration(n) * time.Millisecond) }

	// The client was idle before the request was due: it slept until due,
	// sent 1ms late, and the server answered 4ms after that.
	lat, lag := dueLatency(due, ms(-3), ms(1), ms(5))
	if lat != 5*time.Millisecond || lag != time.Millisecond {
		t.Errorf("idle client: lat %v lag %v, want 5ms 1ms", lat, lag)
	}
	// The client came free 20ms after the request was due (the server was
	// slow on the previous one): the wait counts in the latency, and none
	// of it is generator lag.
	lat, lag = dueLatency(due, ms(20), ms(20), ms(23))
	if lat != 23*time.Millisecond || lag != -1 {
		t.Errorf("busy client: lat %v lag %v, want 23ms -1", lat, lag)
	}
}

func TestScheduleDue(t *testing.T) {
	s := newSchedule(200)
	if !s.paced() || s.interval != 5*time.Millisecond {
		t.Fatalf("schedule %+v, want paced at 5ms", s)
	}
	if got := s.due(3).Sub(s.due(0)); got != 15*time.Millisecond {
		t.Errorf("due(3)-due(0) = %v, want 15ms", got)
	}
	if (schedule{}).paced() {
		t.Error("zero schedule is paced, want closed loop")
	}
}

func TestParseStatCPU(t *testing.T) {
	// The command name may hold spaces and parentheses.
	line := "4242 (tempo d) (x)) S 1 4242 4242 0 -1 4194560 1200 0 3 0 150 50 0 0 20 0 9 0 1000 0 0\n"
	got, err := parseStatCPU([]byte(line))
	if err != nil {
		t.Fatal(err)
	}
	if got != 2*time.Second { // (150+50) ticks at USER_HZ 100
		t.Errorf("cpu = %v, want 2s", got)
	}
	for _, bad := range []string{"", "4242 tempod S 1 2", "4242 (tempod) S 1 2 3"} {
		if _, err := parseStatCPU([]byte(bad)); err == nil {
			t.Errorf("parseStatCPU(%q) succeeded, want an error", bad)
		}
	}
}

func TestProcCPUSelf(t *testing.T) {
	before, err := procCPU(0)
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(50 * time.Millisecond)
	for x := 0; time.Now().Before(deadline); x++ {
	}
	after, err := procCPU(os.Getpid())
	if err != nil {
		t.Fatal(err)
	}
	if after < before {
		t.Errorf("cpu went backwards: %v then %v", before, after)
	}
}

func TestParseVmHWM(t *testing.T) {
	status := "Name:\ttempod\nVmPeak:\t  900000 kB\nVmHWM:\t  123456 kB\nVmRSS:\t  100000 kB\n"
	got, err := parseVmHWM(strings.NewReader(status))
	if err != nil {
		t.Fatal(err)
	}
	if got != 123456*1024 {
		t.Errorf("VmHWM = %d bytes, want %d", got, 123456*1024)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseVmHWM(strings.NewReader(bad)); err == nil {
			t.Errorf("parseVmHWM(%q) succeeded, want an error", bad)
		}
	}
	if rss, err := peakRSS(os.Getpid()); err != nil || rss <= 0 {
		t.Errorf("peakRSS(self) = %d, %v; want a positive size", rss, err)
	}
}

// TestWindowedUnits checks the windowed layout: every cluster's rounds in
// order, its last unit ending with report and delete, and never more than
// the window's clusters holding state at once.
func TestWindowedUnits(t *testing.T) {
	base, err := service.SmallSpec()
	if err != nil {
		t.Fatal(err)
	}
	w := &workload{rounds: 4, window: 3, candidates: 1, probes: func(int) []kind { return []kind{kQSFull} }}
	cs, err := w.newClusters(base, "t", 0, 10, 1, func(int) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	units, n, err := w.buildUnits(cs, 0, w.rounds, 1)
	if err != nil {
		t.Fatal(err)
	}
	next := map[int]int{}
	live := map[int]bool{}
	flat := 0
	for _, u := range units {
		if u.first != flat {
			t.Fatalf("unit first %d, want %d", u.first, flat)
		}
		flat += len(u.reqs)
		if u.round != next[u.cluster] {
			t.Fatalf("cluster %d: round %d before round %d", u.cluster, u.round, next[u.cluster])
		}
		next[u.cluster]++
		live[u.cluster] = true
		if len(live) > w.window+1 {
			t.Fatalf("%d clusters hold state, window is %d", len(live), w.window)
		}
		last := u.reqs[len(u.reqs)-1].kind
		if (u.round == w.rounds-1) != (last == kDelete) {
			t.Fatalf("cluster %d round %d ends with %s", u.cluster, u.round, last)
		}
		if last == kDelete {
			delete(live, u.cluster)
		}
	}
	if flat != n || len(next) != len(cs) {
		t.Errorf("%d requests over %d clusters, want %d over %d", flat, len(next), n, len(cs))
	}
}
