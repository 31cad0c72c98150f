package admission

import (
	"fmt"
	"runtime"
	"testing"

	"unitdb/internal/core/usm"
	"unitdb/internal/readyq"
	"unitdb/internal/stats"
	"unitdb/internal/txn"
)

// scatteredQueue builds a ready queue of depth queries whose Txns are
// allocated between filler objects of random size and pushed in random
// order, so they lie scattered over the heap as on a live server rather
// than packed in allocation order. Query i in dispatch order finishes a
// second before its deadline: nothing queued is near missing. It returns
// the queue, the fillers (to keep them live) and the deadline of the
// median query.
func scatteredQueue(depth int, now float64) (*readyq.Queue, [][]byte, float64) {
	rng := stats.NewRNG(uint64(depth))
	txns := make([]*txn.Txn, depth)
	var filler [][]byte
	finish := now
	for i := range txns {
		filler = append(filler, make([]byte, 64+rng.Intn(512)))
		exec := rng.Uniform(0.001, 0.02)
		finish += exec
		txns[i] = txn.NewQuery(int64(i+1), now, []int{i % 64, (i + 7) % 64}, exec, finish+1-now, 0.9)
	}
	rq := readyq.New()
	for _, i := range rng.Perm(depth) {
		rq.Push(txns[i])
		filler = append(filler, make([]byte, 64+rng.Intn(512)))
	}
	return rq, filler, rq.EDFQueries()[depth/2].Deadline
}

// BenchmarkAdmitOrdered times the admission walk of the live paths — the
// simulator's and the server's AdmitOrdered over readyq's own storage — at
// three queue depths, for two candidates:
//
//   - tail: the latest deadline and more work than its slack, the shape of
//     an arrival under overload. Gate 1 sums the whole queue and rejects.
//   - mid: a deadline at the median and little work. Gate 1 sums half the
//     queue and passes; gate 2 walks the other half, endangers nothing and
//     admits.
//
// The bench module's core.admission.admit_ns probes time Admit, the
// snapshot-and-sort path, so they do not show this layer.
func BenchmarkAdmitOrdered(b *testing.B) {
	const now = 10.0
	w := usm.Weights{Cr: 0.25, Cfm: 0.75, Cfs: 0.25}
	for _, depth := range []int{16, 256, 1024} {
		rq, filler, median := scatteredQueue(depth, now)
		queued := rq.EDFQueries()
		last := queued[depth-1].Deadline
		for _, c := range []struct {
			name string
			cand *txn.Txn
			want Reason
		}{
			{"tail", txn.NewQuery(int64(depth+1), now, []int{0}, 1.5, last+0.001-now, 0.9), RejectedDeadline},
			{"mid", txn.NewQuery(int64(depth+1), now, []int{0}, 0.005, median+0.0001-now, 0.9), Admitted},
		} {
			b.Run(fmt.Sprintf("q%d/%s", depth, c.name), func(b *testing.B) {
				ctrl := New(w)
				if got := ctrl.AdmitOrdered(now, c.cand, 0.01, queued); got != c.want {
					b.Fatalf("candidate decided %v, want %v", got, c.want)
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					ctrl.AdmitOrdered(now, c.cand, 0.01, queued)
				}
			})
		}
		runtime.KeepAlive(filler)
	}
}
