package eventsim

import (
	"math"
	"testing"
	"testing/quick"

	"unitdb/internal/stats"
)

func TestEventsFireInTimeOrder(t *testing.T) {
	s := New()
	var got []int
	s.At(3, func() { got = append(got, 3) })
	s.At(1, func() { got = append(got, 1) })
	s.At(2, func() { got = append(got, 2) })
	s.RunAll()
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("order = %v", got)
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %v", s.Now())
	}
}

func TestTiesFireInScheduleOrder(t *testing.T) {
	s := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(5, func() { got = append(got, i) })
	}
	s.RunAll()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie order broken at %d: %v", i, got)
		}
	}
}

func TestAfterAndNow(t *testing.T) {
	s := New()
	var at float64
	s.At(10, func() {
		s.After(5, func() { at = s.Now() })
	})
	s.RunAll()
	if at != 15 {
		t.Fatalf("After fired at %v", at)
	}
}

func TestCancel(t *testing.T) {
	s := New()
	fired := false
	e := s.At(1, func() { fired = true })
	s.Cancel(e)
	s.Cancel(e) // idempotent
	s.Cancel(nil)
	s.RunAll()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if s.Pending() != 0 {
		t.Fatalf("pending = %d", s.Pending())
	}
}

// TestRearmMatchesFreshAt runs one program twice, once re-arming a
// periodic event in place and once scheduling a fresh event each period,
// and requires the same firing sequence. Work lands on the tick instants
// from before the tick was armed, from inside the tick before its re-arm,
// and from other events, so the (time, seq) tie-break decides the order.
func TestRearmMatchesFreshAt(t *testing.T) {
	type firing struct {
		label int
		at    float64
	}
	run := func(seed uint64, rearm bool) []firing {
		rng := stats.NewRNG(seed)
		s := New()
		var log []firing
		work := func(label int) func() {
			return func() { log = append(log, firing{label, s.Now()}) }
		}
		for i := 0; i < 30; i++ {
			s.At(float64(rng.Intn(20)), work(i))
		}
		const period = 2.0
		var tick *Event
		var fn func()
		fn = func() {
			log = append(log, firing{-1, s.Now()})
			s.After(0, work(100))
			s.After(period*float64(rng.Intn(2)), work(101))
			if next := s.Now() + period; next <= 20 {
				if rearm {
					s.Rearm(tick, next)
				} else {
					s.At(next, fn)
				}
			}
		}
		tick = s.At(period, fn)
		s.RunAll()
		return log
	}
	f := func(seed uint64) bool {
		a, b := run(seed, true), run(seed, false)
		if len(a) != len(b) {
			return false
		}
		for i := range a {
			if a[i] != b[i] {
				t.Logf("firing %d: re-armed %v, fresh %v", i, a[i], b[i])
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRearmPanics(t *testing.T) {
	s := New()
	queued := s.At(5, func() {})
	fired := s.At(1, func() {})
	s.Run(2)
	for name, fn := range map[string]func(){
		"queued":     func() { s.Rearm(queued, 6) },
		"past":       func() { s.Rearm(fired, 1) },
		"non-finite": func() { s.Rearm(fired, math.Inf(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Rearm of a %s event did not panic", name)
				}
			}()
			fn()
		}()
	}
	// A cancelled event is no longer queued and may be re-armed.
	s.Cancel(queued)
	ran := false
	queued = s.At(3, func() { ran = true })
	s.Cancel(queued)
	s.Rearm(queued, 4)
	s.RunAll()
	if !ran || s.Pending() != 0 {
		t.Fatalf("re-armed cancelled event: ran=%v pending=%d", ran, s.Pending())
	}
}

func TestCancelFromInsideEvent(t *testing.T) {
	s := New()
	fired := false
	e := s.At(2, func() { fired = true })
	s.At(1, func() { s.Cancel(e) })
	s.RunAll()
	if fired {
		t.Fatal("event cancelled at t=1 still fired at t=2")
	}
}

func TestRunUntil(t *testing.T) {
	s := New()
	var got []float64
	for _, tt := range []float64{1, 2, 3, 4, 5} {
		tt := tt
		s.At(tt, func() { got = append(got, tt) })
	}
	n := s.Run(3)
	if n != 3 || len(got) != 3 {
		t.Fatalf("ran %d events, got %v", n, got)
	}
	if s.Now() != 3 {
		t.Fatalf("clock = %v, want clamped to 3", s.Now())
	}
	s.Run(10)
	if len(got) != 5 || s.Now() != 10 {
		t.Fatalf("resume failed: %v now=%v", got, s.Now())
	}
}

func TestRunAdvancesClockWhenIdle(t *testing.T) {
	s := New()
	s.Run(42)
	if s.Now() != 42 {
		t.Fatalf("idle Run did not advance clock: %v", s.Now())
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	s := New()
	s.At(5, func() {})
	s.RunAll()
	defer func() {
		if recover() == nil {
			t.Fatal("past scheduling did not panic")
		}
	}()
	s.At(1, func() {})
}

func TestNegativeDelayPanics(t *testing.T) {
	s := New()
	defer func() {
		if recover() == nil {
			t.Fatal("negative delay did not panic")
		}
	}()
	s.After(-1, func() {})
}

func TestFiredCounter(t *testing.T) {
	s := New()
	for i := 0; i < 7; i++ {
		s.After(float64(i), func() {})
	}
	s.RunAll()
	if s.Fired() != 7 {
		t.Fatalf("Fired = %d", s.Fired())
	}
}

func TestSelfSchedulingChain(t *testing.T) {
	s := New()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 100 {
			s.After(1, tick)
		}
	}
	s.After(1, tick)
	s.RunAll()
	if count != 100 || s.Now() != 100 {
		t.Fatalf("chain count=%d now=%v", count, s.Now())
	}
}

func TestRandomScheduleProperty(t *testing.T) {
	// Under random schedule/cancel traffic, events always fire in
	// non-decreasing time order and the clock never goes backwards.
	f := func(seed uint64) bool {
		rng := stats.NewRNG(seed)
		s := New()
		ok := true
		last := -1.0
		var events []*Event
		for i := 0; i < 200; i++ {
			tt := rng.Float64() * 100
			events = append(events, s.At(tt, func() {
				if s.Now() < last {
					ok = false
				}
				last = s.Now()
			}))
		}
		for _, e := range events {
			if rng.Float64() < 0.3 {
				s.Cancel(e)
			}
		}
		s.RunAll()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
