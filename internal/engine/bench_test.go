// Engine micro-benchmarks, in the external test package so they can
// drive the engine with the real policies. Each full-run benchmark
// reports simulated events/sec, the engine's throughput currency. They
// are profiling aids and no gate reads them; the sim-fig4 workload of
// bench/ judges engine speed end to end.
package engine_test

import (
	"fmt"
	"testing"

	"unitdb/internal/baseline"
	"unitdb/internal/baseline/qmf"
	"unitdb/internal/core"
	"unitdb/internal/core/usm"
	"unitdb/internal/engine"
	"unitdb/internal/workload"
)

// benchTrace synthesizes one small med-unif trace shared by the
// benchmarks below (2k queries — large enough to exercise steady state,
// small enough for tight benchmark loops).
func benchTrace(tb testing.TB) *workload.Workload {
	tb.Helper()
	qc := workload.SmallQueryConfig()
	qc.NumQueries = 2000
	qc.Duration = 8000
	q, err := workload.GenerateQueries(qc, 42)
	if err != nil {
		tb.Fatal(err)
	}
	w, err := workload.GenerateUpdates(q, workload.DefaultUpdateConfig(workload.Med, workload.Uniform), 43)
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

func benchPolicy(tb testing.TB, name string) engine.Policy {
	tb.Helper()
	switch name {
	case "IMU":
		return baseline.NewIMU()
	case "ODU":
		return baseline.NewODU()
	case "QMF":
		cfg := qmf.DefaultConfig()
		cfg.Seed = 1
		return qmf.New(cfg)
	case "UNIT":
		cfg := core.DefaultConfig(usm.Weights{})
		cfg.Seed = 1
		return core.New(cfg)
	default:
		tb.Fatalf("unknown policy %s", name)
		return nil
	}
}

// BenchmarkEngineRun measures a full simulation run per policy and
// reports simulated events/sec.
func BenchmarkEngineRun(b *testing.B) {
	w := benchTrace(b)
	for _, name := range []string{"IMU", "ODU", "QMF", "UNIT"} {
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				e, err := engine.New(engine.NewConfig(w, usm.Weights{}, 7), benchPolicy(b, name))
				if err != nil {
					b.Fatal(err)
				}
				r, err := e.Run()
				if err != nil {
					b.Fatal(err)
				}
				events += r.Events
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(events)/s, "events/sec")
			}
		})
	}
}

// shardBenchTrace is the sharded router's own trace: sparse (500
// queries over 4000 time units, so the per-shard control loops the
// router multiplies are well represented) and 8 items per query, so
// nearly every query scatters across shards and the partition/merge
// path — the code this benchmark exists to watch — carries real
// weight. BenchmarkEngineRun keeps covering raw single-engine query
// execution.
func shardBenchTrace(b *testing.B) *workload.Workload {
	b.Helper()
	qc := workload.SmallQueryConfig()
	qc.NumQueries = 500
	qc.Duration = 4000
	qc.ItemsPerQuery = 8
	q, err := workload.GenerateQueries(qc, 42)
	if err != nil {
		b.Fatal(err)
	}
	w, err := workload.GenerateUpdates(q, workload.DefaultUpdateConfig(workload.Med, workload.Uniform), 43)
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkEngineRunSharded measures the front-door router end to end:
// the trace partitioned across N UNIT shards (Workers=0: one goroutine
// per shard, parallel up to GOMAXPROCS), reporting merged simulated
// events/sec. shards=1 is the router's passthrough overhead floor;
// shards=4 is the scaling point, whose ratio to shards=1 bench/ reports
// as engine.sharded4_speedup.
func BenchmarkEngineRunSharded(b *testing.B) {
	w := shardBenchTrace(b)
	for _, shards := range []int{1, 4} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			b.ReportAllocs()
			var events int64
			for i := 0; i < b.N; i++ {
				r, err := engine.RunSharded(engine.ShardedConfig{
					Shards:   shards,
					Workload: w,
					Weights:  usm.Weights{},
					Seed:     7,
					Policy: func(_ int, seed uint64) (engine.Policy, error) {
						cfg := core.DefaultConfig(usm.Weights{})
						cfg.Seed = seed
						return core.New(cfg), nil
					},
				})
				if err != nil {
					b.Fatal(err)
				}
				events += r.Events
			}
			if s := b.Elapsed().Seconds(); s > 0 {
				b.ReportMetric(float64(events)/s, "events/sec")
			}
		})
	}
}

// BenchmarkEngineConstruct isolates engine setup (event scheduling for
// every arrival in the trace) from the run loop.
func BenchmarkEngineConstruct(b *testing.B) {
	w := benchTrace(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := engine.New(engine.NewConfig(w, usm.Weights{}, 7), baseline.NewIMU()); err != nil {
			b.Fatal(err)
		}
	}
}
