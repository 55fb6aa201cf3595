// Distributed measurement collection: monitor agents over TCP plus a NOC
// collector — the plumbing the paper assumes for "monitors probe each
// other and the NOC collects measurements".
//
// The example starts one TCP monitor per vantage point of the Section II
// network, schedules three epochs (the second with the bridge link down),
// collects the end-to-end measurements through real sockets, and feeds the
// surviving measurements into the tomography solver.
//
// Run: go run ./examples/agents
package main

import (
	"context"
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
	ex := robusttomo.NewExampleNetwork()
	paths, err := robusttomo.MonitorPairs(ex.Graph, ex.Monitors, ex.Monitors)
	if err != nil {
		return err
	}
	pm, err := robusttomo.NewPathMatrix(paths, ex.Graph.NumEdges())
	if err != nil {
		return err
	}

	// Ground truth and the epoch schedule: epoch 1 loses the bridge.
	truth := []float64{2.5, 1.0, 4.0, 3.5, 1.5, 2.0, 5.0, 3.0}
	schedule := make([]robusttomo.Scenario, 3)
	for e := range schedule {
		schedule[e] = robusttomo.Scenario{Failed: make([]bool, pm.NumLinks())}
	}
	schedule[1].Failed[ex.Bridge] = true
	oracle, err := robusttomo.NewEpochOracle(truth, schedule)
	if err != nil {
		return err
	}

	// One TCP monitor per vantage point, ephemeral ports on localhost.
	addrs := map[string]string{}
	for _, mn := range ex.Monitors {
		name := ex.Graph.Label(mn)
		mon, err := robusttomo.StartMonitor(name, "127.0.0.1:0", oracle)
		if err != nil {
			return err
		}
		defer mon.Close()
		addrs[name] = mon.Addr()
		fmt.Printf("monitor %s listening on %s\n", name, mon.Addr())
	}

	noc, err := robusttomo.NewStreamNOC(robusttomo.StreamConfig{
		PM:       pm,
		Monitors: addrs,
		SourceOf: func(path int) string { return ex.Graph.Label(pm.Path(path).Src) },
	})
	if err != nil {
		return err
	}
	defer noc.Close()

	selected := make([]int, pm.NumPaths())
	for i := range selected {
		selected[i] = i
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	for epoch := 0; epoch < len(schedule); epoch++ {
		ms, err := noc.CollectEpoch(ctx, epoch, selected)
		if err != nil {
			return err
		}
		var idx []int
		var y []float64
		for _, m := range ms {
			if m.OK {
				idx = append(idx, m.PathID)
				y = append(y, m.Value)
			}
		}
		sys, err := robusttomo.NewSystem(pm, idx, y)
		if err != nil {
			return err
		}
		values, ident, err := sys.Solve()
		if err != nil {
			return err
		}
		identified := 0
		maxErr := 0.0
		for j := range truth {
			if !ident[j] {
				continue
			}
			identified++
			if d := values[j] - truth[j]; d > maxErr {
				maxErr = d
			} else if -d > maxErr {
				maxErr = -d
			}
		}
		fmt.Printf("epoch %d: %d/%d measurements collected, rank %d, %d/%d links identified (max abs error %.2g)\n",
			epoch, len(idx), len(selected), sys.Rank(), identified, pm.NumLinks(), maxErr)
	}
	return nil
}
