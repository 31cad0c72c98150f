// Package tracereport analyzes trace JSONL dumps (from `unitsim -trace`
// and `unitscenario run -outdir`) offline: it rebuilds each query's
// lifecycle from its span events, aggregates the per-stage latency
// attribution finalized on the outcome events, and renders a
// deterministic critical-path report — per-stage percentile tables,
// outcome-sliced breakdowns, the top-N slowest queries, and the
// query-latency picture around each Load Balancing Controller decision.
//
// Everything here is a pure function of the input bytes: maps are never
// iterated without sorting, floats render with fixed precision, and no
// clock is read — same-seed dumps produce byte-identical reports (the
// property cmd/unittrace's tests pin).
package tracereport

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"

	"unitdb/internal/obs/trace"
)

// StageNames orders the attribution stages in every table; "total" is
// the derived end-to-end row.
var StageNames = []string{"queue_wait", "lock_wait", "exec", "overhead", "total"}

// QueryRecord is one query's rebuilt lifecycle.
type QueryRecord struct {
	Query    int64                 `json:"query"`
	ArriveT  float64               `json:"arrive_t"`
	OutcomeT float64               `json:"outcome_t"`
	Outcome  string                `json:"outcome"`
	Stages   *trace.StageBreakdown `json:"stages,omitempty"`
	Restarts int                   `json:"restarts,omitempty"`
	Preempts int                   `json:"preempts,omitempty"`
	Blocks   int                   `json:"blocks,omitempty"`
}

// StageStats is the distribution of one stage across the resolved
// queries that carry breakdowns.
type StageStats struct {
	Stage string  `json:"stage"`
	Count int     `json:"count"`
	Mean  float64 `json:"mean"`
	P50   float64 `json:"p50"`
	P90   float64 `json:"p90"`
	P99   float64 `json:"p99"`
	Max   float64 `json:"max"`
	// Share is the stage's fraction of the summed total latency — where
	// the run's query time went.
	Share float64 `json:"share"`
}

// OutcomeSlice aggregates the breakdowns of one terminal outcome: which
// stage dominates DSF vs success is read straight off the means.
type OutcomeSlice struct {
	Outcome    string             `json:"outcome"`
	Count      int                `json:"count"`
	StageMeans map[string]float64 `json:"stage_means"`
	// Dominant is the stage with the largest mean ("" when no query of
	// this outcome carried a breakdown).
	Dominant string `json:"dominant"`
}

// DecisionWindow correlates one LBC decision with the queries resolved
// since the previous decision (or the start of the trace).
type DecisionWindow struct {
	T         float64 `json:"t"`
	Action    string  `json:"action"`
	WindowUSM float64 `json:"window_usm"`
	Resolved  int     `json:"resolved"`
	MeanTotal float64 `json:"mean_total"`
	Dominant  string  `json:"dominant"`
}

// Report is the full analysis of one dump.
type Report struct {
	Events    int `json:"events"`
	Decisions int `json:"decisions"`
	Queries   int `json:"queries"` // queries with a terminal outcome
	WithStage int `json:"with_stages"`

	PerStage []StageStats     `json:"per_stage"`
	Outcomes []OutcomeSlice   `json:"outcomes"`
	Critical []QueryRecord    `json:"critical_path"` // slowest first
	Windows  []DecisionWindow `json:"decision_windows"`
}

// stageValue extracts one named stage from a breakdown.
func stageValue(b *trace.StageBreakdown, stage string) float64 {
	switch stage {
	case "queue_wait":
		return b.QueueWait
	case "lock_wait":
		return b.LockWait
	case "exec":
		return b.Exec
	case "overhead":
		return b.Overhead
	default:
		return b.Total
	}
}

// percentile is the nearest-rank percentile of an ascending-sorted
// slice.
func percentile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// Analyze reads one trace JSONL dump and builds the report. topN bounds
// the critical-path table (non-positive means 10).
func Analyze(r io.Reader, topN int) (*Report, error) {
	if topN <= 0 {
		topN = 10
	}
	type probe struct {
		Kind string `json:"kind"`
	}
	rep := &Report{}
	records := map[int64]*QueryRecord{}
	var decisions []trace.Decision
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var p probe
		if err := json.Unmarshal(line, &p); err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		if p.Kind == string(trace.KindDecision) {
			var d trace.Decision
			if err := json.Unmarshal(line, &d); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			rep.Decisions++
			decisions = append(decisions, d)
			continue
		}
		var ev trace.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		rep.Events++
		rec := records[ev.Query]
		if rec == nil {
			rec = &QueryRecord{Query: ev.Query, ArriveT: ev.T}
			records[ev.Query] = rec
		}
		switch ev.Kind {
		case trace.KindArrive:
			rec.ArriveT = ev.T
		case trace.KindRestart:
			rec.Restarts++
		case trace.KindPreempt:
			rec.Preempts++
		case trace.KindBlock:
			rec.Blocks++
		case trace.KindOutcome:
			rec.Outcome = ev.Outcome
			rec.OutcomeT = ev.T
			rec.Stages = ev.Stages
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	// Resolved queries in deterministic id order.
	resolved := make([]*QueryRecord, 0, len(records))
	for _, rec := range records {
		if rec.Outcome != "" {
			resolved = append(resolved, rec)
		}
	}
	sort.Slice(resolved, func(i, j int) bool { return resolved[i].Query < resolved[j].Query })
	rep.Queries = len(resolved)

	// Per-stage percentile tables.
	var totalSum float64
	stageSums := map[string]float64{}
	for _, st := range StageNames {
		var vals []float64
		var sum float64
		for _, rec := range resolved {
			if rec.Stages == nil {
				continue
			}
			v := stageValue(rec.Stages, st)
			vals = append(vals, v)
			sum += v
		}
		sort.Float64s(vals)
		s := StageStats{Stage: st, Count: len(vals), Max: percentile(vals, 1),
			P50: percentile(vals, 0.50), P90: percentile(vals, 0.90), P99: percentile(vals, 0.99)}
		if len(vals) > 0 {
			s.Mean = sum / float64(len(vals))
		}
		stageSums[st] = sum
		if st == "total" {
			totalSum = sum
			rep.WithStage = len(vals)
		}
		rep.PerStage = append(rep.PerStage, s)
	}
	for i := range rep.PerStage {
		if totalSum > 0 && rep.PerStage[i].Stage != "total" {
			rep.PerStage[i].Share = stageSums[rep.PerStage[i].Stage] / totalSum
		}
	}

	// Outcome-sliced breakdowns.
	byOutcome := map[string][]*QueryRecord{}
	for _, rec := range resolved {
		byOutcome[rec.Outcome] = append(byOutcome[rec.Outcome], rec)
	}
	outcomes := make([]string, 0, len(byOutcome))
	for o := range byOutcome {
		outcomes = append(outcomes, o)
	}
	sort.Strings(outcomes)
	for _, o := range outcomes {
		slice := OutcomeSlice{Outcome: o, Count: len(byOutcome[o]), StageMeans: map[string]float64{}}
		n := 0
		for _, rec := range byOutcome[o] {
			if rec.Stages == nil {
				continue
			}
			n++
			for _, st := range StageNames {
				slice.StageMeans[st] += stageValue(rec.Stages, st)
			}
		}
		best := ""
		for _, st := range StageNames {
			if n > 0 {
				slice.StageMeans[st] /= float64(n)
			}
			if st != "total" && (best == "" || slice.StageMeans[st] > slice.StageMeans[best]) && n > 0 {
				best = st
			}
		}
		slice.Dominant = best
		rep.Outcomes = append(rep.Outcomes, slice)
	}

	// Critical path: slowest queries by total attributed latency, ties
	// broken by id so the table is deterministic.
	withStages := make([]*QueryRecord, 0, len(resolved))
	for _, rec := range resolved {
		if rec.Stages != nil {
			withStages = append(withStages, rec)
		}
	}
	sort.Slice(withStages, func(i, j int) bool {
		if withStages[i].Stages.Total != withStages[j].Stages.Total {
			return withStages[i].Stages.Total > withStages[j].Stages.Total
		}
		return withStages[i].Query < withStages[j].Query
	})
	if len(withStages) > topN {
		withStages = withStages[:topN]
	}
	for _, rec := range withStages {
		rep.Critical = append(rep.Critical, *rec)
	}

	// Decision correlation windows: queries resolved in (prev, d.T].
	sort.Slice(decisions, func(i, j int) bool { return decisions[i].Seq < decisions[j].Seq })
	prev := math.Inf(-1)
	for _, d := range decisions {
		w := DecisionWindow{T: d.T, Action: d.Action, WindowUSM: d.WindowUSM}
		sums := map[string]float64{}
		for _, rec := range resolved {
			if rec.OutcomeT <= prev || rec.OutcomeT > d.T || rec.Stages == nil {
				continue
			}
			w.Resolved++
			w.MeanTotal += rec.Stages.Total
			for _, st := range StageNames[:4] {
				sums[st] += stageValue(rec.Stages, st)
			}
		}
		if w.Resolved > 0 {
			w.MeanTotal /= float64(w.Resolved)
			best := StageNames[0]
			for _, st := range StageNames[:4] {
				if sums[st] > sums[best] {
					best = st
				}
			}
			w.Dominant = best
		}
		rep.Windows = append(rep.Windows, w)
		prev = d.T
	}
	return rep, nil
}

// WriteText renders the report as a fixed-layout human-readable table
// set. The rendering is a pure function of the report.
func (rep *Report) WriteText(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "trace: %d events, %d decisions, %d resolved queries (%d with stage breakdowns)\n",
		rep.Events, rep.Decisions, rep.Queries, rep.WithStage)
	fmt.Fprintf(bw, "\nper-stage latency (seconds):\n")
	fmt.Fprintf(bw, "  %-10s %8s %10s %10s %10s %10s %10s %7s\n",
		"stage", "count", "mean", "p50", "p90", "p99", "max", "share")
	for _, s := range rep.PerStage {
		share := "-"
		if s.Stage != "total" {
			share = fmt.Sprintf("%6.2f%%", 100*s.Share)
		}
		fmt.Fprintf(bw, "  %-10s %8d %10.6f %10.6f %10.6f %10.6f %10.6f %7s\n",
			s.Stage, s.Count, s.Mean, s.P50, s.P90, s.P99, s.Max, share)
	}
	fmt.Fprintf(bw, "\nper-outcome stage means (seconds):\n")
	fmt.Fprintf(bw, "  %-12s %8s %10s %10s %10s %10s %10s  %s\n",
		"outcome", "count", "queue", "lock", "exec", "overhead", "total", "dominant")
	for _, o := range rep.Outcomes {
		fmt.Fprintf(bw, "  %-12s %8d %10.6f %10.6f %10.6f %10.6f %10.6f  %s\n",
			o.Outcome, o.Count, o.StageMeans["queue_wait"], o.StageMeans["lock_wait"],
			o.StageMeans["exec"], o.StageMeans["overhead"], o.StageMeans["total"], o.Dominant)
	}
	fmt.Fprintf(bw, "\ncritical path (slowest %d):\n", len(rep.Critical))
	fmt.Fprintf(bw, "  %-8s %-10s %10s %10s %10s %10s %10s %4s %4s %4s\n",
		"query", "outcome", "total", "queue", "lock", "exec", "overhead", "rst", "pre", "blk")
	for _, c := range rep.Critical {
		fmt.Fprintf(bw, "  %-8d %-10s %10.6f %10.6f %10.6f %10.6f %10.6f %4d %4d %4d\n",
			c.Query, c.Outcome, c.Stages.Total, c.Stages.QueueWait, c.Stages.LockWait,
			c.Stages.Exec, c.Stages.Overhead, c.Restarts, c.Preempts, c.Blocks)
	}
	fmt.Fprintf(bw, "\nLBC decision windows (queries resolved since previous decision):\n")
	fmt.Fprintf(bw, "  %-10s %-22s %10s %8s %10s  %s\n",
		"t", "action", "usm", "resolved", "mean_total", "dominant")
	for _, d := range rep.Windows {
		fmt.Fprintf(bw, "  %-10.3f %-22s %10.6f %8d %10.6f  %s\n",
			d.T, d.Action, d.WindowUSM, d.Resolved, d.MeanTotal, d.Dominant)
	}
	return bw.Flush()
}
