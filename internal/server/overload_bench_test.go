package server

import (
	"sync"
	"testing"
	"time"

	"unitdb/internal/core/usm"
)

// BenchmarkQueryOverload drives the direct query path (QueryCtx, no HTTP)
// at the shape of the repository benchmark's overload-open workload: four
// workers that sleep 2 ms per query, offered 2,700 queries/s (about 150 %
// of what they sustain) with 500 ms deadlines and the same USM weights,
// so the ready queue stands about 800 deep and every arrival walks it
// under the server lock. Five seconds of unmeasured warm-up let the queue
// fill and the controller settle. A pacer hands arrival tokens to
// a fixed pool of client goroutines, so the harness allocates nothing per
// query. ns/op is therefore the pacing interval; the figures of interest
// are allocs/op (the clients run in-process, so both ends count), the
// mean queue depth and the profiles `make profile-live` writes.
func BenchmarkQueryOverload(b *testing.B) {
	const (
		rate    = 2700
		clients = 2048
		warmUp  = 5 * rate
	)
	cfg := DefaultConfig()
	cfg.Weights = usm.Weights{Cr: 0.2, Cfm: 0.8, Cfs: 0.2}
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	req := QueryRequest{Items: []int{7}, Deadline: 500 * time.Millisecond, Work: 2 * time.Millisecond}
	tokens := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(clients)
	for i := 0; i < clients; i++ {
		go func() {
			defer wg.Done()
			for range tokens {
				s.Query(req)
			}
		}()
	}
	var depth, samples int
	offer := func(n int, sample bool) {
		start := time.Now()
		for i := 0; i < n; i++ {
			if d := time.Until(start.Add(time.Duration(i) * time.Second / rate)); d > 0 {
				time.Sleep(d)
			}
			tokens <- struct{}{}
			if sample && i%64 == 0 {
				s.mu.Lock()
				depth += s.queue.Len()
				s.mu.Unlock()
				samples++
			}
		}
	}
	offer(warmUp, false)
	b.ReportAllocs()
	b.ResetTimer()
	offer(b.N, true)
	close(tokens)
	wg.Wait()
	b.StopTimer()
	b.ReportMetric(float64(depth)/float64(samples), "queue")
}
