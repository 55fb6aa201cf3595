package agent

import (
	"context"
	"testing"
)

// BenchmarkCollectFrames times one full epoch over real loopback TCP on a
// 4-monitor x 128-path panel (binary frames, sharded sessions). It reports
// the "frames" metric in path-frames, one per path collected, the unit of
// the per-line collector it replaced, so frames/sec stays comparable with
// the history recorded in BENCH_agent.json.

const (
	benchMonitors    = 4
	benchPathsPerMon = 128
)

func BenchmarkCollectFrames(b *testing.B) {
	panel := buildStreamPanel(b, benchMonitors, benchPathsPerMon)
	addrs := panel.startMonitors(b)
	cfg := panel.streamConfig(addrs)
	cfg.Shards = 2
	cfg.Encoding = EncodingBinary
	s, err := NewStreamNOC(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	ctx := context.Background()
	// Warmup epoch: dial every transport so the timed loop measures the
	// steady state, not connection setup.
	if _, err := s.CollectAssembled(ctx, 0, panel.all); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.CollectAssembled(ctx, i+1, panel.all)
		if err != nil {
			b.Fatal(err)
		}
		if len(out.Measurements) != len(panel.all) {
			b.Fatalf("epoch %d: %d/%d measurements", i+1, len(out.Measurements), len(panel.all))
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(len(panel.all)), "frames")
}
