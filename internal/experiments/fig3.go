package experiments

import (
	"encoding/csv"
	"fmt"
	"io"
	"sort"
	"strconv"
	"text/tabwriter"

	"unitdb/internal/core/usm"
	"unitdb/internal/stats"
	"unitdb/internal/workload"
)

// Fig3Item is one data item's row in paper Figure 3: its per-item query
// count (panel a), its original update volume (grey area of panels b/c)
// and the updates UNIT actually executed (black line/dots).
type Fig3Item struct {
	Item     int
	Queries  int // trace query accesses (panel a)
	Original int // source updates emitted
	Applied  int // updates UNIT executed
	Dropped  int // updates UNIT skipped or superseded
}

// Fig3Result holds the distributions for one trace cell.
type Fig3Result struct {
	Trace string
	Items []Fig3Item

	TotalOriginal int
	TotalApplied  int
	TotalDropped  int
	// AppliedQueryCorrelation is the Pearson correlation between UNIT's
	// surviving per-item update counts and the query distribution — the
	// paper's case study 1 observes that UNIT "adaptively follows the
	// query distribution".
	AppliedQueryCorrelation float64
}

// Fig3 runs UNIT (naive weights) on one trace cell and extracts the
// distributions of paper Figure 3. The paper shows med-unif (case study 1)
// and med-neg (case study 2).
func Fig3(cfg Config, v workload.Volume, d workload.Distribution) (*Fig3Result, error) {
	q, err := cfg.BuildQueryTrace()
	if err != nil {
		return nil, err
	}
	w, err := cfg.BuildCellTrace(q, v, d)
	if err != nil {
		return nil, err
	}
	r, err := cfg.RunCellNamed("fig3", w.Name, w, UNIT, usm.Weights{})
	if err != nil {
		return nil, err
	}
	res := &Fig3Result{Trace: w.Name}
	applied := make([]float64, w.NumItems)
	queries := make([]float64, w.NumItems)
	for i := 0; i < w.NumItems; i++ {
		item := Fig3Item{
			Item:     i,
			Queries:  w.QueryCounts[i],
			Original: w.UpdateCounts[i],
			Applied:  r.AppliedCounts[i],
			Dropped:  r.DroppedCounts[i],
		}
		res.Items = append(res.Items, item)
		res.TotalOriginal += item.Original
		res.TotalApplied += item.Applied
		res.TotalDropped += item.Dropped
		applied[i] = float64(item.Applied)
		queries[i] = float64(item.Queries)
	}
	res.AppliedQueryCorrelation = stats.Pearson(applied, queries)
	return res, nil
}

// DropRatioByAccessRank summarizes how drops concentrate on cold-accessed
// items: it sorts items by query count (descending) and reports the drop
// ratio per rank bucket — the quantitative form of the paper's Figure 3
// observations.
func (f *Fig3Result) DropRatioByAccessRank(buckets []int) []RankBucket {
	items := make([]Fig3Item, len(f.Items))
	copy(items, f.Items)
	sort.Slice(items, func(i, j int) bool {
		if items[i].Queries != items[j].Queries {
			return items[i].Queries > items[j].Queries
		}
		return items[i].Item < items[j].Item
	})
	var out []RankBucket
	start := 0
	for _, end := range buckets {
		if end > len(items) {
			end = len(items)
		}
		if start >= end {
			break
		}
		b := RankBucket{From: start, To: end}
		for _, it := range items[start:end] {
			b.Queries += it.Queries
			b.Original += it.Original
			b.Applied += it.Applied
			b.Dropped += it.Dropped
		}
		if tot := b.Applied + b.Dropped; tot > 0 {
			b.DropRatio = float64(b.Dropped) / float64(tot)
		}
		out = append(out, b)
		start = end
	}
	return out
}

// RankBucket aggregates items by access rank.
type RankBucket struct {
	From, To  int // rank range [From, To)
	Queries   int
	Original  int
	Applied   int
	Dropped   int
	DropRatio float64
}

// WriteFig3 renders the bucketed summary.
func WriteFig3(w io.Writer, f *Fig3Result) error {
	fmt.Fprintf(w, "Figure 3 (%s): UNIT executed %d of %d source updates (%.1f%% dropped)\n",
		f.Trace, f.TotalApplied, f.TotalOriginal,
		100*float64(f.TotalDropped)/float64(maxInt(1, f.TotalApplied+f.TotalDropped)))
	fmt.Fprintf(w, "corr(applied updates, query distribution) = %+.3f\n", f.AppliedQueryCorrelation)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "access rank\tqueries\torig updates\tapplied\tdropped\tdrop ratio")
	for _, b := range f.DropRatioByAccessRank([]int{10, 50, 100, 300, 1024}) {
		fmt.Fprintf(tw, "%d-%d\t%d\t%d\t%d\t%d\t%.3f\n",
			b.From, b.To, b.Queries, b.Original, b.Applied, b.Dropped, b.DropRatio)
	}
	return tw.Flush()
}

// WriteCSV dumps the full per-item distributions (the paper's raw plot
// data) as item,queries,original,applied,dropped.
func (f *Fig3Result) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"item", "queries", "original_updates", "applied_updates", "dropped_updates"}); err != nil {
		return err
	}
	for _, it := range f.Items {
		rec := []string{
			strconv.Itoa(it.Item), strconv.Itoa(it.Queries),
			strconv.Itoa(it.Original), strconv.Itoa(it.Applied), strconv.Itoa(it.Dropped),
		}
		if err := cw.Write(rec); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
