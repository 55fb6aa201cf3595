package main

import (
	"fmt"
	"sort"
	"time"

	"robusttomo/internal/agent"
	"robusttomo/internal/failure"
	"robusttomo/internal/obs"
	"robusttomo/internal/routing"
	"robusttomo/internal/sim"
	"robusttomo/internal/tomo"
	"robusttomo/internal/topo"
)

// demoConfig parameterizes the shared fault-tolerance demo loop that both
// `tomo collect` (fixed epoch count) and `tomo serve` (daemon) run: the
// Section II example network with real TCP monitors, a NOC with retries
// and circuit breakers, and — optionally — one monitor killed mid-run.
type demoConfig struct {
	Horizon   int // epochs the failure schedule covers
	Retries   int
	Threshold int
	Cooldown  time.Duration
	FailFast  bool
	Seed      uint64
	Mode      sim.Mode
	// Observer, when non-nil, instruments every layer of the loop.
	Observer *obs.Registry

	// Shards is the NOC's session-table shard count (0: the plane's
	// default).
	Shards int
	// Watermark bounds how long an epoch waits for missing results before
	// sealing (0: the plane's default).
	Watermark time.Duration
	// Encoding selects the batch frame encoding (binary or JSON lines).
	Encoding agent.Encoding
}

// demoLoop owns the wired-up components of the demo.
type demoLoop struct {
	Ex       *topo.Example
	PM       *tomo.PathMatrix
	Runner   *sim.Runner
	NOC      *agent.StreamNOC
	Monitors map[string]*agent.Monitor
	Addrs    map[string]string
	// Victim is the monitor whose death costs measurements: the source of
	// the first selected path in Static mode, the first monitor by name in
	// Learning mode.
	Victim string
}

// newDemoLoop builds and wires the demo: topology, routing, failure model,
// closed-loop runner, TCP monitors and the NOC collector.
func newDemoLoop(cfg demoConfig) (*demoLoop, error) {
	ex := topo.NewExample()
	paths, err := routing.MonitorPairs(ex.Graph, ex.Monitors, ex.Monitors)
	if err != nil {
		return nil, err
	}
	pm, err := tomo.NewPathMatrix(paths, ex.Graph.NumEdges())
	if err != nil {
		return nil, err
	}
	probs := make([]float64, pm.NumLinks())
	for i := range probs {
		probs[i] = 0.05
	}
	probs[ex.Bridge] = 0.3
	model, err := failure.FromProbabilities(probs)
	if err != nil {
		return nil, err
	}
	costs := make([]float64, pm.NumPaths())
	for i := range costs {
		costs[i] = 1
	}
	metrics := make([]float64, pm.NumLinks())
	for i := range metrics {
		metrics[i] = 1 + float64(i)*0.5
	}
	mode := cfg.Mode
	if mode == 0 {
		mode = sim.Static
	}
	runner, err := sim.New(sim.Config{
		PM:       pm,
		Costs:    costs,
		Budget:   10,
		Metrics:  metrics,
		Failures: model,
		Horizon:  cfg.Horizon,
		Mode:     mode,
		Model:    model,
		Seed:     cfg.Seed,
		Observer: cfg.Observer,
	})
	if err != nil {
		return nil, err
	}

	d := &demoLoop{
		Ex:       ex,
		PM:       pm,
		Runner:   runner,
		Monitors: map[string]*agent.Monitor{},
		Addrs:    map[string]string{},
	}
	for _, mn := range ex.Monitors {
		name := ex.Graph.Label(mn)
		mon, err := agent.StartMonitor(name, "127.0.0.1:0", runner.Oracle())
		if err != nil {
			d.Close()
			return nil, err
		}
		d.Monitors[name] = mon
		d.Addrs[name] = mon.Addr()
	}
	if sel := runner.StaticSelection(); len(sel) > 0 {
		d.Victim = d.SrcOf(sel[0])
	} else {
		names := make([]string, 0, len(d.Monitors))
		for name := range d.Monitors {
			names = append(names, name)
		}
		sort.Strings(names)
		d.Victim = names[0]
	}

	noc, err := agent.NewStreamNOC(agent.StreamConfig{
		PM:        pm,
		Monitors:  d.Addrs,
		SourceOf:  d.SrcOf,
		Shards:    cfg.Shards,
		Watermark: cfg.Watermark,
		Encoding:  cfg.Encoding,
		Retry:     agent.RetryPolicy{MaxAttempts: cfg.Retries},
		Breaker:   agent.BreakerPolicy{FailureThreshold: cfg.Threshold, Cooldown: cfg.Cooldown},
		Timeouts:  agent.Timeouts{Dial: 250 * time.Millisecond, Exchange: 2 * time.Second},
		FailFast:  cfg.FailFast,
		Observer:  cfg.Observer,
	})
	if err != nil {
		d.Close()
		return nil, err
	}
	d.NOC = noc
	if err := runner.UseCollector(noc); err != nil {
		d.Close()
		return nil, err
	}
	return d, nil
}

// SrcOf maps a path index to its source monitor's name.
func (d *demoLoop) SrcOf(p int) string { return d.Ex.Graph.Label(d.PM.Path(p).Src) }

// KillVictim closes the victim monitor's listener, so subsequent epochs
// exercise retries, breaker opening and partial collection.
func (d *demoLoop) KillVictim() { d.Monitors[d.Victim].Close() }

// BreakerLine formats the collector's breaker states as "name=state ..."
// sorted by monitor name.
func (d *demoLoop) BreakerLine() string {
	states := make([]string, 0, len(d.Monitors))
	for name, st := range d.NOC.BreakerStates() {
		states = append(states, fmt.Sprintf("%s=%s", name, st))
	}
	sort.Strings(states)
	out := ""
	for i, s := range states {
		if i > 0 {
			out += " "
		}
		out += s
	}
	return out
}

// Close tears down the NOC and every monitor. Safe on a partially
// constructed loop and safe to call twice.
func (d *demoLoop) Close() {
	if d.NOC != nil {
		d.NOC.Close()
	}
	for _, m := range d.Monitors {
		m.Close()
	}
}
