package eventsim

import (
	"fmt"
	"sort"
	"testing"

	"unitdb/internal/stats"
)

// The model test runs one random program of At/Rearm/Cancel calls, issued
// up front and from inside callbacks, against both Sim and a reference
// that keeps its pending events in a slice sorted by (time, seq) and pops
// an event before calling it. Both runs must log the same firing
// sequence, clock, fired count and pending count, the last read inside
// callbacks too.

// kernel is the surface a program drives, over integer event labels.
type kernel interface {
	// arm schedules label at t: label == the number of labels so far
	// makes a new event (how picks At or NewEvent+Rearm), a known label
	// is re-armed.
	arm(label int, t float64, how byte)
	cancel(label int)
	run(until float64)
	runAll()
	now() float64
	fired() int64
	pending() int
}

type simKernel struct {
	s    *Sim
	evs  []*Event
	fire func(label int)
}

func (k *simKernel) arm(label int, t float64, how byte) {
	if label == len(k.evs) {
		fn := func() { k.fire(label) }
		if how%2 == 0 {
			k.evs = append(k.evs, k.s.At(t, fn))
			return
		}
		k.evs = append(k.evs, k.s.NewEvent(fn))
	}
	k.s.Rearm(k.evs[label], t)
}

func (k *simKernel) cancel(label int)  { k.s.Cancel(k.evs[label]) }
func (k *simKernel) run(until float64) { k.s.Run(until) }
func (k *simKernel) runAll()           { k.s.RunAll() }
func (k *simKernel) now() float64      { return k.s.Now() }
func (k *simKernel) fired() int64      { return k.s.Fired() }
func (k *simKernel) pending() int      { return k.s.Pending() }

type refEntry struct {
	t     float64
	seq   int64
	label int
}

// refKernel is the reference: a sorted slice, popped before each call.
type refKernel struct {
	clock  float64
	seq    int64
	nfired int64
	queue  []refEntry
	fire   func(label int)
}

func (k *refKernel) arm(label int, t float64, _ byte) {
	e := refEntry{t, k.seq, label}
	k.seq++
	i := sort.Search(len(k.queue), func(i int) bool {
		q := k.queue[i]
		return q.t > e.t || (q.t == e.t && q.seq > e.seq)
	})
	k.queue = append(k.queue, refEntry{})
	copy(k.queue[i+1:], k.queue[i:])
	k.queue[i] = e
}

func (k *refKernel) cancel(label int) {
	for i, q := range k.queue {
		if q.label == label {
			k.queue = append(k.queue[:i], k.queue[i+1:]...)
			return
		}
	}
}

func (k *refKernel) step() {
	e := k.queue[0]
	k.queue = k.queue[1:]
	k.clock = e.t
	k.nfired++
	k.fire(e.label)
}

func (k *refKernel) run(until float64) {
	for len(k.queue) > 0 && k.queue[0].t <= until {
		k.step()
	}
	if k.clock < until {
		k.clock = until
	}
}

func (k *refKernel) runAll() {
	for len(k.queue) > 0 {
		k.step()
	}
}

func (k *refKernel) now() float64 { return k.clock }
func (k *refKernel) fired() int64 { return k.nfired }
func (k *refKernel) pending() int { return len(k.queue) }

// maxLabels bounds the events a program creates.
const maxLabels = 48

// program interprets a byte stream as calls on a kernel. Its decisions
// depend only on the bytes and on its own record of which labels are
// queued, so two correct kernels fed the same bytes log the same lines.
type program struct {
	k      kernel
	next   func() byte
	queued []bool
	budget int // callbacks that may still issue calls
	log    []string
}

func (p *program) logf(format string, args ...any) {
	p.log = append(p.log, fmt.Sprintf(format, args...))
}

func (p *program) fire(label int) {
	p.queued[label] = false
	p.logf("fire %d now=%v fired=%d pending=%d", label, p.k.now(), p.k.fired(), p.k.pending())
	if p.budget == 0 {
		return
	}
	p.budget--
	for n := p.next() % 4; n > 0; n-- {
		p.op(label)
	}
}

// op issues one call; self is the firing label, or -1 outside callbacks.
func (p *program) op(self int) {
	kind, arg := p.next(), p.next()
	t := p.k.now() + float64(arg%4) // delay 0 re-arms to now
	switch kind % 6 {
	case 0: // new event
		if l := len(p.queued); l < maxLabels {
			p.queued = append(p.queued, true)
			p.k.arm(l, t, arg>>2)
		}
	case 1: // re-arm self, from inside its callback or after a self-cancel
		if self >= 0 && !p.queued[self] {
			p.queued[self] = true
			p.k.arm(self, t, 0)
		}
	case 2: // cancel self
		if self >= 0 {
			p.queued[self] = false
			p.k.cancel(self)
		}
	case 3: // cancel another event, queued or not
		if l := len(p.queued); l > 0 {
			o := int(arg>>2) % l
			p.queued[o] = false
			p.k.cancel(o)
		}
	case 4: // re-arm another event that is not queued
		if l := len(p.queued); l > 0 {
			if o := int(arg>>2) % l; !p.queued[o] {
				p.queued[o] = true
				p.k.arm(o, t, 0)
			}
		}
	case 5:
		p.logf("pending=%d", p.k.pending())
	}
}

// runProgram drives k with the bytes from next and returns the log.
func runProgram(next func() byte, mk func(fire func(int)) kernel) []string {
	p := &program{next: next, budget: 400}
	p.k = mk(p.fire)
	for n := p.next()%8 + 1; n > 0; n-- {
		p.op(-1)
	}
	p.k.run(float64(p.next() % 8))
	p.logf("run now=%v fired=%d pending=%d", p.k.now(), p.k.fired(), p.k.pending())
	for n := p.next() % 4; n > 0; n-- {
		p.op(-1)
	}
	p.k.runAll()
	p.logf("end now=%v fired=%d pending=%d", p.k.now(), p.k.fired(), p.k.pending())
	return p.log
}

// checkAgainstModel runs the program from src on Sim and on the reference.
func checkAgainstModel(t *testing.T, src func() func() byte) {
	t.Helper()
	got := runProgram(src(), func(fire func(int)) kernel { return &simKernel{s: New(), fire: fire} })
	want := runProgram(src(), func(fire func(int)) kernel { return &refKernel{fire: fire} })
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			g := "<missing>"
			if i < len(got) {
				g = got[i]
			}
			t.Fatalf("line %d: Sim %q, model %q", i, g, want[i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Sim logged %d lines, model %d; first extra %q", len(got), len(want), got[len(want)])
	}
}

func TestScheduleMatchesModel(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		checkAgainstModel(t, func() func() byte {
			rng := stats.NewRNG(seed)
			return func() byte { return byte(rng.Uint64()) }
		})
	}
}

// FuzzSchedule drives the model test from fuzz bytes; once they run out
// every decision reads 0, which issues no further calls.
func FuzzSchedule(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 0, 0, 0, 4, 1, 5, 1, 0, 1, 0, 2, 1, 4, 1})
	f.Add([]byte{7, 6, 9, 1, 2, 0, 3, 2, 0, 0, 2, 1, 0, 1, 3, 4, 8, 5, 5, 2, 2, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		checkAgainstModel(t, func() func() byte {
			i := 0
			return func() byte {
				if i >= len(data) {
					return 0
				}
				i++
				return data[i-1]
			}
		})
	})
}
