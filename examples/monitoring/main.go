// Scalable overlay monitoring (the Chen et al. application the paper
// builds on, reference [3]): probe only an independent subset of paths and
// reconstruct every other end-to-end measurement algebraically.
//
// The twist from the paper: under link failures, which basis you probed
// matters. This example probes (a) an arbitrary basis and (b) a robust
// RoMe selection of the same cost, fails links, and counts how many of the
// full candidate set's measurements can still be reconstructed from the
// surviving probes.
//
// The second half runs the same idea over the wire: real TCP monitors, a
// fault-tolerant NOC, and a monitor killed mid-run — collection degrades
// to partial epochs with a typed error instead of aborting.
//
// Run: go run ./examples/monitoring
package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"time"

	"robusttomo"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	tp, err := robusttomo.PresetTopology("AS1755")
	if err != nil {
		return err
	}

	rng := robusttomo.NewRNG(7, 0)
	k := 12
	perm := rng.Perm(len(tp.Access))
	var src, dst []robusttomo.NodeID
	for i := 0; i < k; i++ {
		src = append(src, tp.Access[perm[i]])
		dst = append(dst, tp.Access[perm[k+i]])
	}
	paths, err := robusttomo.MonitorPairs(tp.Graph, src, dst)
	if err != nil {
		return err
	}
	pm, err := robusttomo.NewPathMatrix(paths, tp.Graph.NumEdges())
	if err != nil {
		return err
	}
	fmt.Printf("overlay: %d candidate monitor pairs over %s, rank %d\n",
		pm.NumPaths(), tp.Graph, pm.Rank())

	model, err := robusttomo.NewFailureModel(robusttomo.FailureConfig{
		Links: tp.Graph.NumEdges(), ExpectedFailures: 3, Seed: 7,
	})
	if err != nil {
		return err
	}

	costs := make([]float64, pm.NumPaths())
	for i := range costs {
		costs[i] = 1
	}
	budget := float64(pm.Rank()) // probe a basis worth of paths

	arbitrary := robusttomo.SelectPath(pm)
	robust, err := robusttomo.SelectRobustPaths(pm, model, costs, budget)
	if err != nil {
		return err
	}

	// Ground-truth loss rates → additive metric via log transform is the
	// classic use; plain delays keep the demo readable.
	truth := make([]float64, pm.NumLinks())
	for i := range truth {
		truth[i] = 1 + rng.Float64()*4
	}
	y, err := pm.TrueMeasurements(truth)
	if err != nil {
		return err
	}

	const trials = 300
	evalRng := robusttomo.NewRNG(7, 1)
	kinds := []struct {
		name string
		sel  []int
	}{
		{"arbitrary basis", arbitrary},
		{"robust selection", robust.Selected},
	}
	totals := make([]float64, len(kinds))
	exact := make([]int, len(kinds))
	for t := 0; t < trials; t++ {
		sc := model.Sample(evalRng)
		for ki, kind := range kinds {
			surv := pm.Surviving(kind.sel, sc)
			ys := make([]float64, len(surv))
			for i, q := range surv {
				ys[i] = y[q]
			}
			rc, err := robusttomo.NewReconstructor(pm, surv, ys)
			if err != nil {
				return err
			}
			covered := 0
			for q := 0; q < pm.NumPaths(); q++ {
				if v, ok := rc.Reconstruct(q); ok {
					covered++
					if diff := v - y[q]; diff < 1e-6 && diff > -1e-6 {
						exact[ki]++
					}
				}
			}
			totals[ki] += float64(covered)
		}
	}

	fmt.Printf("\nreconstruction coverage over %d failure scenarios (probing ≤ %d paths):\n", trials, int(budget))
	for ki, kind := range kinds {
		avg := totals[ki] / trials
		fmt.Printf("  %-17s reconstructs %.1f/%d e2e measurements on average (all %d reconstructions exact)\n",
			kind.name, avg, pm.NumPaths(), exact[ki])
	}

	return faultTolerantCollection()
}

// faultTolerantCollection probes the Section II example network over real
// TCP monitors and kills one mid-run: the NOC retries, trips its circuit
// breaker, and keeps delivering the surviving monitors' measurements.
func faultTolerantCollection() error {
	ex := robusttomo.NewExampleNetwork()
	paths, err := robusttomo.MonitorPairs(ex.Graph, ex.Monitors, ex.Monitors)
	if err != nil {
		return err
	}
	pm, err := robusttomo.NewPathMatrix(paths, ex.Graph.NumEdges())
	if err != nil {
		return err
	}
	truth := make([]float64, pm.NumLinks())
	for i := range truth {
		truth[i] = 1 + float64(i)*0.5
	}
	oracle, err := robusttomo.NewEpochOracle(truth, nil)
	if err != nil {
		return err
	}

	monitors := map[string]*robusttomo.Monitor{}
	addrs := map[string]string{}
	for _, mn := range ex.Monitors {
		name := ex.Graph.Label(mn)
		mon, err := robusttomo.StartMonitor(name, "127.0.0.1:0", oracle)
		if err != nil {
			return err
		}
		defer mon.Close()
		monitors[name] = mon
		addrs[name] = mon.Addr()
	}

	noc, err := robusttomo.NewStreamNOC(robusttomo.StreamConfig{
		PM:       pm,
		Monitors: addrs,
		SourceOf: func(p int) string { return ex.Graph.Label(pm.Path(p).Src) },
		// A probe written just as its monitor dies goes unanswered; the
		// watermark bounds how long that epoch waits for it.
		Watermark: 250 * time.Millisecond,
		Retry:     robusttomo.RetryPolicy{MaxAttempts: 2},
		Breaker:   robusttomo.BreakerPolicy{FailureThreshold: 2, Cooldown: 200 * time.Millisecond},
		Timeouts:  robusttomo.CollectorTimeouts{Dial: 250 * time.Millisecond, Exchange: 2 * time.Second},
	})
	if err != nil {
		return err
	}
	defer noc.Close()

	selected := make([]int, pm.NumPaths())
	for i := range selected {
		selected[i] = i
	}
	victim := ex.Graph.Label(pm.Path(selected[0]).Src)
	fmt.Printf("\nfault-tolerant TCP collection: %d monitors, %d paths; monitor %s dies after epoch 1\n",
		len(addrs), len(selected), victim)
	ctx := context.Background()
	for epoch := 0; epoch < 5; epoch++ {
		if epoch == 2 {
			monitors[victim].Close()
		}
		ms, err := noc.CollectEpoch(ctx, epoch, selected)
		switch {
		case err == nil:
			fmt.Printf("  epoch %d: %d/%d measurements, all monitors healthy\n", epoch, len(ms), len(selected))
		case errors.Is(err, robusttomo.ErrMonitorUnreachable) || errors.Is(err, robusttomo.ErrCircuitOpen):
			var cerr *robusttomo.CollectionError
			if !errors.As(err, &cerr) {
				return err // typed degradation is the only expected error here
			}
			fmt.Printf("  epoch %d: degraded — %d/%d measurements, lost paths %v via %v (breaker %s)\n",
				epoch, len(ms), len(selected), cerr.LostPaths(), cerr.FailedMonitors(), noc.BreakerStates()[victim])
		default:
			return err
		}
	}
	fmt.Printf("  the loop survived the dead monitor: partial epochs kept flowing\n")
	return nil
}
