// Benchmarks for the sharded concurrent study pipeline (study.RunCtx):
// the same end-to-end run — generation, filter, sharded aggregation,
// merge, analyses — at increasing worker counts. samples/s is the
// headline metric; EXPERIMENTS.md records the measured scaling curve.
// workers=1 is the same pipeline — generation and the Overview's
// sessions lane on the delivering goroutine, its routes lane and one
// aggregation shard each on a goroutine after it — so the curve starts
// from the concurrency machinery already paid for.
package repro_test

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/study"
	"repro/internal/world"
)

// benchPipelineCfg sizes the run so generation (workload + flowsim +
// methodology) dominates: one day across 64 groups at moderate density,
// ~120k sessions per run.
func benchPipelineCfg() world.Config {
	return world.Config{Seed: 42, Groups: 64, Days: 1, SessionsPerGroupWindow: 20}
}

func BenchmarkPipelineThroughput(b *testing.B) {
	counts := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	seen := make(map[int]bool)
	for _, workers := range counts {
		if seen[workers] {
			continue
		}
		seen[workers] = true
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			samples := 0
			for i := 0; i < b.N; i++ {
				res, err := study.RunCtx(context.Background(), benchPipelineCfg(), study.Options{Workers: workers})
				if err != nil {
					b.Fatal(err)
				}
				samples += res.Collector.Accepted
			}
			b.ReportMetric(float64(samples)/b.Elapsed().Seconds(), "samples/s")
		})
	}
}
