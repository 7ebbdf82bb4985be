package guard

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"
)

func TestCallConvertsPanic(t *testing.T) {
	if perr := Call(func() {}); perr != nil {
		t.Fatalf("Call on clean fn returned %v", perr)
	}
	perr := Call(func() { panic("boom") })
	if perr == nil {
		t.Fatal("Call did not capture panic")
	}
	if perr.Value != "boom" {
		t.Fatalf("Value = %v, want boom", perr.Value)
	}
	if len(perr.Stack) == 0 {
		t.Fatal("no stack captured")
	}
}

func TestSentinelCountsPerComponent(t *testing.T) {
	var observed []string
	s := NewSentinel(func(component string, err *PanicError) {
		observed = append(observed, component)
	})
	if err := s.Do("clean", func() {}); err != nil {
		t.Fatalf("clean component returned %v", err)
	}
	for i := 0; i < 3; i++ {
		err := s.Do("cycler", func() { panic(i) })
		var perr *PanicError
		if !errors.As(err, &perr) {
			t.Fatalf("Do returned %T, want *PanicError", err)
		}
		if perr.Component != "cycler" {
			t.Fatalf("Component = %q", perr.Component)
		}
	}
	_ = s.Do("bus", func() { panic("x") })
	if got := s.Total(); got != 4 {
		t.Fatalf("Total = %d, want 4", got)
	}
	counts := s.Counts()
	if len(counts) != 2 || counts[0].Component != "bus" || counts[0].Count != 1 ||
		counts[1].Component != "cycler" || counts[1].Count != 3 {
		t.Fatalf("Counts = %+v", counts)
	}
	if len(observed) != 4 {
		t.Fatalf("observer saw %d panics, want 4", len(observed))
	}
}

func TestSentinelContainsPanickingObserver(t *testing.T) {
	s := NewSentinel(func(string, *PanicError) { panic("observer is broken") })
	_ = s.Do("comp", func() { panic("original") })
	counts := s.Counts()
	if len(counts) != 2 {
		t.Fatalf("Counts = %+v, want comp and sentinel.observer", counts)
	}
	if counts[1].Component != "sentinel.observer" || counts[1].Count != 1 {
		t.Fatalf("observer panic not counted: %+v", counts)
	}
}

func TestBreakerBackoffGrowsThenTrips(t *testing.T) {
	b := NewBreaker(BreakerConfig{Budget: 3, Window: time.Minute, BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second})
	t0 := time.Unix(1000, 0)
	wantDelays := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond}
	for i, want := range wantDelays {
		d, ok := b.Next(t0.Add(time.Duration(i) * time.Second))
		if !ok || d != want {
			t.Fatalf("restart %d: delay=%v ok=%v, want %v true", i, d, ok, want)
		}
	}
	d, ok := b.Next(t0.Add(3 * time.Second))
	if ok {
		t.Fatalf("4th failure in window: delay=%v ok=true, want tripped", d)
	}
	if !b.Tripped() {
		t.Fatal("breaker should be tripped")
	}
	// A tripped breaker stays dead even after the window would lapse.
	if _, ok := b.Next(t0.Add(time.Hour)); ok {
		t.Fatal("tripped breaker granted a restart")
	}
}

func TestBreakerWindowSlides(t *testing.T) {
	b := NewBreaker(BreakerConfig{Budget: 2, Window: 10 * time.Second, BackoffBase: time.Millisecond, BackoffMax: time.Second})
	t0 := time.Unix(0, 0)
	// Sparse failures — one per window — never accumulate.
	for i := 0; i < 20; i++ {
		d, ok := b.Next(t0.Add(time.Duration(i) * 11 * time.Second))
		if !ok {
			t.Fatalf("sparse failure %d tripped the breaker", i)
		}
		if d != time.Millisecond {
			t.Fatalf("sparse failure %d: delay %v, want base", i, d)
		}
	}
	in, tripped := b.Restarts()
	if in != 1 || tripped {
		t.Fatalf("Restarts = (%d,%v), want (1,false)", in, tripped)
	}
}

func TestBreakerBackoffCaps(t *testing.T) {
	b := NewBreaker(BreakerConfig{Budget: 50, Window: time.Hour, BackoffBase: 100 * time.Millisecond, BackoffMax: time.Second})
	t0 := time.Unix(0, 0)
	var last time.Duration
	for i := 0; i < 20; i++ {
		d, ok := b.Next(t0.Add(time.Duration(i) * time.Second))
		if !ok {
			t.Fatalf("failure %d tripped under budget", i)
		}
		last = d
	}
	if last != time.Second {
		t.Fatalf("backoff did not cap: %v", last)
	}
}

// TestBackoffSequences pins the delay sequence of every retry loop at
// its default configuration: fleet reader redials (500ms..30s), edge
// upstream and replication peer redials (100ms..5s), and core's
// unhealthy-cycle pause and the panic-restart breaker (100ms..10s).
// Past the cap the delay stays there, however many failures pile up.
func TestBackoffSequences(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name          string
		base, ceiling time.Duration
		want          []time.Duration // n = 1, 2, ...
	}{
		{"fleet reader", 500 * ms, 30 * time.Second,
			[]time.Duration{500 * ms, time.Second, 2 * time.Second, 4 * time.Second, 8 * time.Second, 16 * time.Second, 30 * time.Second, 30 * time.Second}},
		{"edge upstream, replication peer", 100 * ms, 5 * time.Second,
			[]time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 3200 * ms, 5 * time.Second, 5 * time.Second}},
		{"core pause, breaker", 100 * ms, 10 * time.Second,
			[]time.Duration{100 * ms, 200 * ms, 400 * ms, 800 * ms, 1600 * ms, 3200 * ms, 6400 * ms, 10 * time.Second, 10 * time.Second}},
		{"base above the cap", 30 * time.Second, 10 * time.Second,
			[]time.Duration{10 * time.Second, 10 * time.Second}},
	}
	for _, tc := range cases {
		for i, want := range tc.want {
			if got := Backoff(tc.base, tc.ceiling, i+1); got != want {
				t.Errorf("%s: Backoff(n=%d) = %v, want %v", tc.name, i+1, got, want)
			}
		}
		for _, n := range []int{-3, 0} {
			if got := Backoff(tc.base, tc.ceiling, n); got != tc.want[0] {
				t.Errorf("%s: Backoff(n=%d) = %v, want the first delay %v", tc.name, n, got, tc.want[0])
			}
		}
		for _, n := range []int{64, 65, 1 << 20, math.MaxInt} {
			if got := Backoff(tc.base, tc.ceiling, n); got != tc.ceiling {
				t.Errorf("%s: Backoff(n=%d) = %v, want the cap %v", tc.name, n, got, tc.ceiling)
			}
		}
	}
	// A cap near the top of the range must not overflow while doubling.
	if got := Backoff(time.Second, math.MaxInt64, 100); got != math.MaxInt64 {
		t.Errorf("Backoff toward MaxInt64 = %v", got)
	}
}

// TestJitterSequence: Jitter scales by 0.8 + 0.4u, and a seeded draw
// sequence gives one fixed delay sequence (the fleet reader default,
// seed 1).
func TestJitterSequence(t *testing.T) {
	d := 10 * time.Second
	for _, tc := range []struct {
		u    float64
		want time.Duration
	}{{0, 8 * time.Second}, {0.5, 10 * time.Second}, {0.75, 11 * time.Second}} {
		if got := Jitter(d, tc.u); got != tc.want {
			t.Errorf("Jitter(%v, %v) = %v, want %v", d, tc.u, got, tc.want)
		}
	}
	rng := rand.New(rand.NewSource(1))
	want := []time.Duration{520932057, 1176203635, 2131648042, 3900342699, 7758839990, 17195667666, 24787644230, 25878231056}
	for i, w := range want {
		if got := Jitter(Backoff(500*time.Millisecond, 30*time.Second, i+1), rng.Float64()); got != w {
			t.Errorf("seeded delay %d = %d, want %d", i+1, got, w)
		}
	}
}

func TestQuarantineConfirmsAfterK(t *testing.T) {
	q := NewQuarantine[string](3, 10*time.Second, 100)
	t0 := time.Unix(0, 0)
	if q.Observe("tag", t0) {
		t.Fatal("first sighting confirmed")
	}
	if q.Observe("tag", t0.Add(time.Second)) {
		t.Fatal("second sighting confirmed")
	}
	if !q.Observe("tag", t0.Add(2*time.Second)) {
		t.Fatal("third sighting not confirmed")
	}
	// Confirmed keys are forgotten: the caller owns them now.
	if q.Contains("tag") {
		t.Fatal("confirmed key still on probation")
	}
	st := q.Stats()
	if st.Confirmed != 1 || st.Held != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestQuarantineWindowExpiry(t *testing.T) {
	q := NewQuarantine[string](2, 10*time.Second, 100)
	t0 := time.Unix(0, 0)
	q.Observe("ghost", t0)
	// Second sighting outside the window restarts probation.
	if q.Observe("ghost", t0.Add(11*time.Second)) {
		t.Fatal("lapsed-window sighting confirmed")
	}
	// Now a sighting inside the NEW window confirms.
	if !q.Observe("ghost", t0.Add(12*time.Second)) {
		t.Fatal("sighting inside restarted window not confirmed")
	}
	if q.Stats().Expired != 1 {
		t.Fatalf("expired = %d, want 1", q.Stats().Expired)
	}
}

func TestQuarantineRingBound(t *testing.T) {
	const cap = 64
	q := NewQuarantine[int](2, time.Minute, cap)
	t0 := time.Unix(0, 0)
	for i := 0; i < 10*cap; i++ {
		if q.Observe(i, t0.Add(time.Duration(i)*time.Millisecond)) {
			t.Fatalf("one-off key %d confirmed", i)
		}
		if q.Len() > cap {
			t.Fatalf("probation population %d exceeds cap %d", q.Len(), cap)
		}
	}
	if q.Len() != cap {
		t.Fatalf("Len = %d, want full ring %d", q.Len(), cap)
	}
	st := q.Stats()
	if st.Evicted != 9*cap {
		t.Fatalf("Evicted = %d, want %d", st.Evicted, 9*cap)
	}
	// Eviction is oldest-first: the survivors are the newest cap keys.
	for i := 0; i < 9*cap; i++ {
		if q.Contains(i) {
			t.Fatalf("old key %d survived eviction", i)
		}
	}
	for i := 9 * cap; i < 10*cap; i++ {
		if !q.Contains(i) {
			t.Fatalf("new key %d missing from ring", i)
		}
	}
}

func TestQuarantinePassThrough(t *testing.T) {
	q := NewQuarantine[string](1, time.Minute, 8)
	if !q.Observe("anything", time.Unix(0, 0)) {
		t.Fatal("k=1 quarantine must admit on first sight")
	}
	if q.Len() != 0 {
		t.Fatal("pass-through quarantine holds state")
	}
}

// Regression: a key that cleared probation and later re-enters leaves a
// stale entry at the FRONT of the eviction FIFO. Matching that entry by
// key alone would evict the key's fresh probe — the youngest in the
// ring — instead of the genuinely oldest one; entries must be matched
// by probe identity so stale duplicates are discarded.
func TestQuarantineReprobationEvictionOrder(t *testing.T) {
	q := NewQuarantine[string](2, time.Minute, 3)
	t0 := time.Unix(1_700_000_000, 0)
	// A clears probation, leaving its stale order entry behind…
	q.Observe("A", t0)
	if !q.Observe("A", t0.Add(time.Second)) {
		t.Fatal("A not confirmed after K sightings")
	}
	// …then B and C enter, and A re-enters probation after both.
	q.Observe("B", t0.Add(2*time.Second))
	q.Observe("C", t0.Add(3*time.Second))
	q.Observe("A", t0.Add(4*time.Second))
	// Ring full: admitting D must evict B, the oldest live probe — not
	// A, whose stale front entry predates B but whose live probe is the
	// youngest in the ring.
	q.Observe("D", t0.Add(5*time.Second))
	if q.Contains("B") {
		t.Fatal("oldest live probe B survived eviction")
	}
	for _, k := range []string{"A", "C", "D"} {
		if !q.Contains(k) {
			t.Fatalf("probe %s wrongly evicted in place of B", k)
		}
	}
	if got := q.Stats().Evicted; got != 1 {
		t.Fatalf("Evicted = %d, want 1", got)
	}
}

func TestQuarantineOrderCompaction(t *testing.T) {
	// Confirmed keys leave dead entries in the order slice; make sure the
	// slice stays O(cap) under a confirm-heavy workload.
	const cap = 16
	q := NewQuarantine[int](2, time.Minute, cap)
	t0 := time.Unix(0, 0)
	for i := 0; i < 1000; i++ {
		at := t0.Add(time.Duration(i) * time.Millisecond)
		q.Observe(i, at)
		q.Observe(i, at.Add(time.Microsecond)) // confirms immediately
	}
	q.mu.Lock()
	orderLen := len(q.order)
	q.mu.Unlock()
	if orderLen > 2*cap {
		t.Fatalf("order slice grew to %d, cap %d", orderLen, cap)
	}
	if q.Stats().Confirmed != 1000 {
		t.Fatalf("Confirmed = %d", q.Stats().Confirmed)
	}
}
