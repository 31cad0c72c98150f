package trace

import (
	"bytes"
	"io"
	"strings"
	"sync"
	"testing"
)

func TestRingKeepsLastN(t *testing.T) {
	r := New(4, 2)
	for i := 0; i < 10; i++ {
		r.Record(Event{T: float64(i), Kind: KindArrive, Query: int64(i)})
	}
	got := r.Events(0)
	if len(got) != 4 {
		t.Fatalf("buffered %d events, want 4", len(got))
	}
	for i, ev := range got {
		if want := int64(6 + i); ev.Query != want {
			t.Fatalf("event %d is query %d, want %d (ring not oldest-first)", i, ev.Query, want)
		}
	}
	if got[0].Seq >= got[1].Seq {
		t.Fatal("sequence numbers not increasing")
	}
	if last := r.Events(1); len(last) != 1 || last[0].Query != 9 {
		t.Fatalf("Events(1) = %+v, want the newest", last)
	}
	evDropped, _ := r.Dropped()
	if evDropped != 6 {
		t.Fatalf("dropped = %d, want 6", evDropped)
	}
}

func TestDecisionsShareSequence(t *testing.T) {
	r := New(8, 8)
	r.Record(Event{T: 1, Kind: KindArrive, Query: 1})
	r.RecordDecision(Decision{T: 2, Action: "LAC"})
	r.Record(Event{T: 3, Kind: KindOutcome, Query: 1, Outcome: "success"})
	d := r.Decisions(0)
	if len(d) != 1 || d[0].Seq != 2 {
		t.Fatalf("decision seq = %+v, want shared counter value 2", d)
	}
}

func TestWriteJSONLMergesBySeq(t *testing.T) {
	r := New(8, 8)
	r.Record(Event{T: 1, Kind: KindArrive, Query: 7})
	r.RecordDecision(Decision{T: 2, Action: "DU TAC", Samples: 30})
	r.Record(Event{T: 3, Kind: KindOutcome, Query: 7, Outcome: "success", Fresh: 0.95})
	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("dump has %d lines, want 3:\n%s", len(lines), buf.String())
	}
	if !strings.Contains(lines[0], `"kind":"arrive"`) ||
		!strings.Contains(lines[1], `"kind":"decision"`) ||
		!strings.Contains(lines[2], `"kind":"outcome"`) {
		t.Fatalf("lines out of sequence order:\n%s", buf.String())
	}
	if !strings.Contains(lines[1], `"action":"DU TAC"`) {
		t.Fatalf("decision line lost its action:\n%s", lines[1])
	}
}

func TestWriteJSONLDeterministic(t *testing.T) {
	dump := func() string {
		r := New(16, 16)
		r.Record(Event{T: 0.5, Kind: KindArrive, Query: 1, Items: 3, Deadline: 1.5})
		r.Record(Event{T: 0.5, Kind: KindAdmit, Query: 1})
		r.RecordDecision(Decision{T: 1, WindowUSM: 0.25, RCost: 0.1, Action: "UU"})
		r.Record(Event{T: 1.2, Kind: KindOutcome, Query: 1, Outcome: "data-stale", Fresh: 0.4})
		var buf bytes.Buffer
		if err := r.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if a, b := dump(), dump(); a != b {
		t.Fatalf("identical recordings dumped different bytes:\n%s\nvs\n%s", a, b)
	}
}

func TestEventsForFiltersOneQuery(t *testing.T) {
	r := New(16, 4)
	r.Record(Event{T: 1, Kind: KindArrive, Query: 1})
	r.Record(Event{T: 1, Kind: KindArrive, Query: 2})
	r.Record(Event{T: 2, Kind: KindExecute, Query: 1})
	r.Record(Event{T: 3, Kind: KindOutcome, Query: 1, Outcome: "success",
		Stages: &StageBreakdown{QueueWait: 1, Exec: 1, Total: 2}})
	got := r.EventsFor(1)
	if len(got) != 3 {
		t.Fatalf("EventsFor(1) returned %d events, want 3: %+v", len(got), got)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq <= got[i-1].Seq {
			t.Fatal("filtered events out of sequence order")
		}
	}
	if got[2].Stages == nil || got[2].Stages.Total != 2 {
		t.Fatalf("outcome event lost its stage breakdown: %+v", got[2])
	}
	if miss := r.EventsFor(99); len(miss) != 0 {
		t.Fatalf("EventsFor(99) = %+v, want empty", miss)
	}
}

func TestCapsReportRingCapacities(t *testing.T) {
	r := New(4, 2)
	if r.EventCap() != 4 || r.DecisionCap() != 2 {
		t.Fatalf("caps = (%d, %d), want (4, 2)", r.EventCap(), r.DecisionCap())
	}
	d := New(0, 0)
	if d.EventCap() != DefaultEventCap || d.DecisionCap() != DefaultDecisionCap {
		t.Fatalf("default caps = (%d, %d)", d.EventCap(), d.DecisionCap())
	}
}

func TestStageBreakdownSum(t *testing.T) {
	b := StageBreakdown{QueueWait: 0.5, LockWait: 0.25, Exec: 1, Overhead: 0.125, Total: 1.875}
	if b.Sum() != b.Total {
		t.Fatalf("Sum() = %v, Total = %v", b.Sum(), b.Total)
	}
}

// TestConcurrentRecording: events and decisions recorded from many
// goroutines, while readers poll every accessor, keep strictly
// increasing sequence numbers and exact drop counts. Under -race a ring
// or counter touched outside mu is a DATA RACE.
func TestConcurrentRecording(t *testing.T) {
	r := New(128, 32)
	const writers, events, decisionEvery = 8, 2000, 2
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < events; i++ {
				r.Record(Event{T: float64(i), Kind: KindQueue, Query: int64(w)})
				if i%decisionEvery == 0 {
					r.RecordDecision(Decision{T: float64(i), Action: "LAC"})
				}
			}
		}(w)
	}
	stop := make(chan struct{})
	var reader sync.WaitGroup
	reader.Add(2)
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Dropped()
		}
	}()
	go func() {
		defer reader.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			r.Events(4)
			r.Dropped()
			r.Decisions(4)
			r.Dropped()
			r.EventsFor(1)
			if err := r.WriteJSONL(io.Discard); err != nil {
				t.Error(err)
			}
		}
	}()
	wg.Wait()
	close(stop)
	reader.Wait()

	evs, decs := r.Events(0), r.Decisions(0)
	if len(evs) != 128 || len(decs) != 32 {
		t.Fatalf("rings hold %d events and %d decisions, want 128 and 32", len(evs), len(decs))
	}
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("event sequence not strictly increasing at %d", i)
		}
	}
	for i := 1; i < len(decs); i++ {
		if decs[i].Seq <= decs[i-1].Seq {
			t.Fatalf("decision sequence not strictly increasing at %d", i)
		}
	}
	evDropped, decDropped := r.Dropped()
	if want := uint64(writers*events - 128); evDropped != want {
		t.Fatalf("events dropped = %d, want %d", evDropped, want)
	}
	if want := uint64(writers*events/decisionEvery - 32); decDropped != want {
		t.Fatalf("decisions dropped = %d, want %d", decDropped, want)
	}
}

// TestMergeOrdersAndLeavesSources: Merge interleaves the sources by
// timestamp, breaks ties by source index, stamps each record with its
// 1-based shard, and leaves the sources readable, so merging the same
// sources twice gives the same stream.
func TestMergeOrdersAndLeavesSources(t *testing.T) {
	a, b := New(8, 8), New(8, 8)
	a.Record(Event{T: 1, Kind: KindArrive, Query: 1})
	b.Record(Event{T: 1, Kind: KindArrive, Query: 2})
	b.RecordDecision(Decision{T: 2, Action: "LAC"})
	a.Record(Event{T: 3, Kind: KindOutcome, Query: 1, Outcome: "success"})

	merged := func() string {
		dst := New(8, 8)
		Merge(dst, a, nil, b)
		var buf bytes.Buffer
		if err := dst.WriteJSONL(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	first := merged()
	lines := strings.Split(strings.TrimSpace(first), "\n")
	want := []string{`"query":1,"shard":1`, `"query":2,"shard":3`, `"action":"LAC"`, `"outcome":"success"`}
	if len(lines) != len(want) {
		t.Fatalf("merged %d records, want %d:\n%s", len(lines), len(want), first)
	}
	for i, w := range want {
		if !strings.Contains(lines[i], w) {
			t.Fatalf("record %d = %s, want it to contain %s", i, lines[i], w)
		}
	}
	if second := merged(); second != first {
		t.Fatalf("second merge of the same sources differs:\n%s\nvs\n%s", second, first)
	}
}
