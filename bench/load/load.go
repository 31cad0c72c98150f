// Package load generates the benchmark's request schedules. A schedule is
// a pure function of (Mix, rate, duration, seed): the program under test
// receives only the generated operations, never the seed, and the same
// seed always yields a byte-identical schedule (see Hash).
//
// Two shapes are provided. An open loop (OpenLoop, Feed, Pace) sends on a
// fixed timetable whatever the server does, so its queue can grow — the
// shape of independent users. A closed loop (Stream) hands a client its
// next operation only when asked, so a slow server receives less load —
// the shape of callers that each wait for a reply.
package load

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"time"

	"unitdb/internal/stats"
)

// DoomedDeadline is the relative deadline of a doomed query. It is below
// the sleep floor of the host and below DoomedWork, so admission's
// deadline check refuses the query whatever the queue holds.
const (
	DoomedDeadline = time.Millisecond
	DoomedWork     = 2 * time.Millisecond
)

// Op is one generated operation: a user query, or an update-feed write
// when Update is set (Items then holds the single item written).
type Op struct {
	Due       time.Duration // offset from the start of the run; 0 in a closed loop
	Update    bool
	Items     []int
	Value     float64 // update payload
	Work      time.Duration
	Deadline  time.Duration
	Freshness float64
	// Doomed marks a query whose deadline is shorter than its own work. The
	// server must refuse it at admission; the benchmark times that refusal
	// on workloads where nothing else is ever refused.
	Doomed bool
}

// Mix describes the queries of one workload.
type Mix struct {
	NumItems      int
	ItemsPerQuery int
	Skew          float64 // Zipf exponent over a seeded permutation of the items
	Work          time.Duration
	Deadline      time.Duration
	Freshness     float64
	DoomedEvery   int // every n-th query is doomed; 0 = none
}

// picker draws distinct items, Zipf-skewed through a seeded permutation so
// the hot items are not the low ids (which would pin them to one shard's
// hash neighbourhood run after run).
type picker struct {
	zipf *stats.Zipf
	perm []int
}

func newPicker(rng *stats.RNG, n int, skew float64) *picker {
	return &picker{perm: rng.Perm(n), zipf: stats.NewZipf(rng.Split(), n, skew)}
}

func (p *picker) items(k int) []int {
	out := make([]int, 0, k)
draw:
	for len(out) < k {
		it := p.perm[p.zipf.Next()]
		for _, have := range out {
			if have == it {
				continue draw
			}
		}
		out = append(out, it)
	}
	return out
}

// queryGen yields the query sequence of one Mix.
type queryGen struct {
	mix  Mix
	pick *picker
	n    int
}

func newQueryGen(mix Mix, rng *stats.RNG) *queryGen {
	return &queryGen{mix: mix, pick: newPicker(rng, mix.NumItems, mix.Skew)}
}

func (g *queryGen) next() Op {
	g.n++
	op := Op{
		Items:     g.pick.items(g.mix.ItemsPerQuery),
		Work:      g.mix.Work,
		Deadline:  g.mix.Deadline,
		Freshness: g.mix.Freshness,
	}
	if g.mix.DoomedEvery > 0 && g.n%g.mix.DoomedEvery == 0 {
		op.Doomed = true
		op.Deadline = DoomedDeadline
		if op.Work < DoomedWork {
			op.Work = DoomedWork
		}
	}
	return op
}

// OpenLoop generates Poisson query arrivals at rate per second over d.
func OpenLoop(mix Mix, rate float64, d time.Duration, seed uint64) []Op {
	rng := stats.NewRNG(seed)
	arrivals := rng.Split()
	gen := newQueryGen(mix, rng.Split())
	ops := make([]Op, 0, int(rate*d.Seconds()*1.1)+16)
	t := 0.0
	for {
		t += arrivals.Exp(1 / rate)
		due := time.Duration(t * float64(time.Second))
		if due >= d {
			return ops
		}
		op := gen.next()
		op.Due = due
		ops = append(ops, op)
	}
}

// Feed generates a fixed-interval update feed at rate per second over d,
// each write to a uniformly drawn item.
func Feed(numItems int, rate float64, d time.Duration, seed uint64) []Op {
	rng := stats.NewRNG(seed ^ 0x9e3779b97f4a7c15)
	n := int(math.Floor(rate * d.Seconds()))
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = updateOp(rng, numItems)
		ops[i].Due = time.Duration(float64(i) / rate * float64(time.Second))
	}
	return ops
}

func updateOp(rng *stats.RNG, numItems int) Op {
	return Op{Update: true, Items: []int{rng.Intn(numItems)}, Value: rng.Float64() * 100}
}

// Stream is one closed-loop client's operation sequence: queries from the
// Mix with every updateEvery-th operation an update-feed write.
type Stream struct {
	gen         *queryGen
	updates     *stats.RNG
	updateEvery int
	n           int
}

// NewStream derives client's stream from seed; distinct clients get
// distinct, reproducible streams.
func NewStream(mix Mix, updateEvery int, seed uint64, client int) *Stream {
	rng := stats.NewRNG(seed + 0x51_7cc1b727220a95*uint64(client+1))
	return &Stream{gen: newQueryGen(mix, rng.Split()), updates: rng.Split(), updateEvery: updateEvery}
}

// Next returns the client's next operation.
func (s *Stream) Next() Op {
	s.n++
	if s.updateEvery > 0 && s.n%s.updateEvery == 0 {
		return updateOp(s.updates, s.gen.mix.NumItems)
	}
	return s.gen.next()
}

// Take returns the next n operations.
func (s *Stream) Take(n int) []Op {
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = s.Next()
	}
	return ops
}

// Pace walks an open-loop schedule on the wall clock: it sleeps until each
// operation is due and then calls fire with the operation's index and how
// late it is being fired. A generator that has fallen behind (a host
// stall, or inter-arrival gaps below the sleep floor) never skips and
// never waits: it fires at once and reports the lateness, so latency timed
// from start+Due still charges the stall to the requests it delayed. fire
// must not block the timetable; a caller whose operation blocks runs it in
// a goroutine of its own.
func Pace(start time.Time, ops []Op, fire func(i int, late time.Duration)) {
	for i := range ops {
		late := time.Since(start) - ops[i].Due
		if late < 0 {
			time.Sleep(-late)
			late = time.Since(start) - ops[i].Due
		}
		fire(i, late)
	}
}

// Hash fingerprints a schedule: every field of every operation, in order.
func Hash(ops []Op) string {
	h := sha256.New()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	flag := func(b bool) {
		if b {
			put(1)
		} else {
			put(0)
		}
	}
	for _, op := range ops {
		put(uint64(op.Due))
		flag(op.Update)
		put(uint64(len(op.Items)))
		for _, it := range op.Items {
			put(uint64(it))
		}
		put(math.Float64bits(op.Value))
		put(uint64(op.Work))
		put(uint64(op.Deadline))
		put(math.Float64bits(op.Freshness))
		flag(op.Doomed)
	}
	return hex.EncodeToString(h.Sum(nil))
}
