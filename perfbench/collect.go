package main

import (
	"context"
	"errors"
	"fmt"
	"time"

	"robusttomo/internal/agent"
	"robusttomo/internal/obs"
	"robusttomo/internal/tomo"
	"robusttomo/internal/topo"
)

// collectMonitors is how many monitors the collect-epoch panel's paths
// are spread over, each behind its own TCP listener.
const collectMonitors = 16

// collectWarm is how many warm-up epochs a set-up runs; the first dials
// every monitor session.
const collectWarm = 40

// linkOracle defines every measurement of the collect-epoch workload: a
// path's value is the sum of its links' metrics, unless one of its links
// is down in that epoch. Link l is down in epoch e with probability
// probs[l], decided by a hash of (seed, e, l), so the monitors and the
// check agree without sharing state. It is read-only, hence safe for the
// monitors' concurrent use.
type linkOracle struct {
	seed    uint64
	metrics []float64
	probs   []float64
}

// Measure implements agent.LinkOracle.
func (o *linkOracle) Measure(epoch int, links []int) (float64, bool) {
	sum := 0.0
	for _, l := range links {
		if l < 0 || l >= len(o.metrics) || o.down(epoch, l) {
			return 0, false
		}
		sum += o.metrics[l]
	}
	return sum, true
}

func (o *linkOracle) down(epoch, l int) bool {
	h := splitmix(o.seed ^ splitmix(uint64(epoch)<<24^uint64(l)))
	return float64(h>>11)/(1<<53) < o.probs[l]
}

func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// collectPanel is the collect-epoch input: the AS3257 candidate paths
// and the oracle drawn from the seed.
type collectPanel struct {
	pm     *tomo.PathMatrix
	all    []int
	links  [][]int
	names  []string
	oracle *linkOracle
}

func newCollectPanel(seed uint64) (*collectPanel, error) {
	in, err := paperInstance(topo.AS3257, 1600)
	if err != nil {
		return nil, err
	}
	p := &collectPanel{pm: in.PM, all: make([]int, in.PM.NumPaths()), links: make([][]int, in.PM.NumPaths())}
	for i := range p.all {
		p.all[i] = i
		p.links[i] = in.PM.EdgesOf(i)
	}
	for m := 0; m < collectMonitors; m++ {
		p.names = append(p.names, fmt.Sprintf("m%02d", m))
	}
	rng := newRNG(seed, streamOracle)
	p.oracle = &linkOracle{seed: rng.Uint64(), metrics: make([]float64, in.PM.NumLinks()), probs: in.Model.Probs()}
	for l := range p.oracle.metrics {
		p.oracle.metrics[l] = 1 + 9*rng.Float64()
	}
	return p, nil
}

// monitorOf spreads paths round-robin over the monitors.
func (p *collectPanel) monitorOf(path int) string { return p.names[path%collectMonitors] }

// collectPlane is one set-up of the collection plane.
type collectPlane struct {
	mons []*agent.Monitor
	noc  *agent.StreamNOC
}

func startPlane(p *collectPanel, seed uint64, reg *obs.Registry) (*collectPlane, error) {
	pl := &collectPlane{}
	addrs := map[string]string{}
	for _, name := range p.names {
		mon, err := agent.StartMonitor(name, "127.0.0.1:0", p.oracle)
		if err != nil {
			pl.close()
			return nil, err
		}
		pl.mons = append(pl.mons, mon)
		addrs[name] = mon.Addr()
	}
	noc, err := agent.NewStreamNOC(agent.StreamConfig{PM: p.pm, Monitors: addrs, SourceOf: p.monitorOf, Seed: seed, Observer: reg})
	if err != nil {
		pl.close()
		return nil, err
	}
	pl.noc = noc
	return pl, nil
}

// close stops the NOC and every monitor and waits for their goroutines.
func (pl *collectPlane) close() {
	if pl.noc != nil {
		_ = pl.noc.Close() // always nil
	}
	for _, m := range pl.mons {
		_ = m.Close() // only reports a listener already closed
	}
}

// checkEpoch verifies one assembled epoch: nothing missing or late, and
// one measurement per path in path order with the value and OK flag the
// oracle defines.
func checkEpoch(out agent.AssembledEpoch, epoch int, links [][]int, o agent.LinkOracle) error {
	if len(out.Missing) > 0 || len(out.Late) > 0 {
		return fmt.Errorf("epoch %d: %d paths missing, %d late", epoch, len(out.Missing), len(out.Late))
	}
	if len(out.Measurements) != len(links) {
		return fmt.Errorf("epoch %d: %d measurements for %d paths", epoch, len(out.Measurements), len(links))
	}
	for p, m := range out.Measurements {
		v, ok := o.Measure(epoch, links[p])
		if m.PathID != p || m.OK != ok || m.Value != v {
			return fmt.Errorf("epoch %d path %d: got (path %d, ok %v, %v), want (ok %v, %v)", epoch, p, m.PathID, m.OK, m.Value, ok, v)
		}
	}
	return nil
}

// runCollect: in-process monitors and one StreamNOC over loopback TCP;
// each op collects one epoch of all 1600 paths.
func runCollect(ctx context.Context, cfg config) (*report, error) {
	p, err := newCollectPanel(cfg.seed)
	if err != nil {
		return nil, err
	}
	var planes []*collectPlane
	defer func() {
		for _, pl := range planes {
			pl.close()
		}
	}()
	epoch := 0
	warmUp := func(pl *collectPlane) error {
		for w := 0; w < collectWarm; w++ {
			out, err := pl.noc.CollectAssembled(ctx, epoch, p.all)
			if err == nil {
				err = checkEpoch(out, epoch, p.links, p.oracle)
			}
			if err != nil {
				return fmt.Errorf("warm-up epoch %d: %w", epoch, err)
			}
			epoch++
		}
		return nil
	}
	setups := make([]float64, setupRepeats)
	for k := range setups {
		if len(planes) > 0 {
			planes[0].close()
			planes = planes[:0]
		}
		t0 := time.Now()
		pl, err := startPlane(p, cfg.seed, nil)
		if err != nil {
			return nil, err
		}
		planes = append(planes, pl)
		if err := warmUp(pl); err != nil {
			return nil, err
		}
		setups[k] = time.Since(t0).Seconds()
	}

	rep := newReport()
	phaseOn := func(pl *collectPlane, tr *tracer, readMem func() (mem, error)) (*phase, error) {
		return runPhase(ctx, cfg.seconds, 1<<30, func(i int) (opResult, error) {
			e := epoch
			epoch++
			root := tr.begin("op", 0, i)
			sp := tr.begin("agent.collect", root, i)
			t0 := time.Now()
			out, err := pl.noc.CollectAssembled(ctx, e, p.all)
			lat := time.Since(t0)
			tr.end(sp)
			tr.end(root)
			res := opResult{class: "epoch", lat: lat}
			if err != nil {
				var cerr *agent.CollectionError
				if !errors.As(err, &cerr) {
					return res, fmt.Errorf("%w: %v", errAbort, err)
				}
				return res, err
			}
			t1 := time.Now()
			if err := checkEpoch(out, e, p.links, p.oracle); err != nil {
				res.aside = time.Since(t1)
				return res, err
			}
			if tr != nil && i%8 == 0 {
				replayEncode(tr, i, e, out, p)
			}
			res.aside = time.Since(t1)
			return res, nil
		}, readMem)
	}
	usage0 := selfUsage()
	ph, err := phaseOn(planes[0], nil, func() (mem, error) { return selfMem(), nil })
	if err != nil {
		return nil, err
	}
	usage1 := selfUsage()
	if !cfg.trace {
		if err := rep.endToEnd(ph, setups); err != nil {
			return nil, err
		}
		return rep, nil
	}

	// Traced: a second plane whose NOC reports into a registry, so its
	// counters are read where the work happens.
	reg := obs.New()
	pl, err := startPlane(p, cfg.seed, reg)
	if err != nil {
		return nil, err
	}
	planes = append(planes, pl)
	if err := warmUp(pl); err != nil {
		return nil, err
	}
	counter := func(name string) float64 { return float64(reg.Counter(name, "").Value()) }
	sent0, recv0 := counter("tomo_stream_frames_sent_total"), counter("tomo_stream_frames_received_total")
	retries0, lost0 := counter("tomo_agent_retries_total"), counter("tomo_agent_lost_paths_total")
	tr := newTracer()
	tph, err := phaseOn(pl, tr, nil)
	if err != nil {
		return nil, err
	}
	ops := float64(tph.attempted)
	rep.traceCounts(ph, tph)
	rep.set("agent.frames_per_op", "count", (counter("tomo_stream_frames_sent_total")-sent0+counter("tomo_stream_frames_received_total")-recv0)/ops)
	rep.set("agent.retries", "count", counter("tomo_agent_retries_total")-retries0)
	rep.set("agent.lost_paths", "count", counter("tomo_agent_lost_paths_total")-lost0)
	rep.setRuntime(usage0, usage1, ph.attempted)
	self := tr.selfMS()
	rep.setLayer(tr, self, "agent.collect_ms", "agent.collect")
	rep.setLayer(tr, self, "agent.encode_ms", "agent.encode")
	rep.set("unaccounted_ms", "ms", median(tr.unaccounted(self, "op", []string{"agent.collect"})))
	if err := traceTail(rep, tr, cfg, ph, tph); err != nil {
		return nil, err
	}
	return rep, nil
}

// replayEncode encodes the epoch's probe batches and result batches as
// the wire does, one span for the lot: the codec share of a collection.
func replayEncode(tr *tracer, op, epoch int, out agent.AssembledEpoch, p *collectPanel) {
	probes := make([]agent.ProbeBatch, collectMonitors)
	results := make([]agent.ResultBatch, collectMonitors)
	for m := range probes {
		probes[m] = agent.ProbeBatch{Type: agent.MsgBatch, Epoch: epoch, Monitor: p.names[m]}
		results[m] = agent.ResultBatch{Type: agent.MsgBatchResult, Epoch: epoch, Monitor: p.names[m]}
	}
	for _, ms := range out.Measurements {
		m := ms.PathID % collectMonitors
		probes[m].Paths = append(probes[m].Paths, agent.BatchPath{PathID: ms.PathID, Links: p.links[ms.PathID]})
		results[m].Results = append(results[m].Results, agent.BatchResult{PathID: ms.PathID, OK: ms.OK, Value: ms.Value})
	}
	var buf []byte
	sp := tr.begin("agent.encode", 0, op)
	for m := range probes {
		buf, _ = agent.EncodeProbeBatch(buf[:0], agent.EncodingBinary, &probes[m])
		buf, _ = agent.EncodeResultBatch(buf[:0], agent.EncodingBinary, &results[m])
	}
	tr.end(sp)
}

// traceTail sets the tracing overhead and the traced op count, and
// writes the spans out.
func traceTail(rep *report, tr *tracer, cfg config, untraced, traced *phase) error {
	p50u, err := percentile(untraced.lat, 0.5)
	if err != nil {
		return err
	}
	p50t, err := percentile(traced.lat, 0.5)
	if err != nil {
		return err
	}
	rep.set("tracing_overhead_ms", "ms", p50t-p50u)
	rep.set("traced_ops", "count", float64(len(traced.lat)))
	path, err := tr.write(cfg.traceDir, fmt.Sprintf("%s-seed%d", cfg.workload, cfg.seed))
	if err != nil {
		return err
	}
	if path != "" {
		rep.notef("spans written to %s", path)
	}
	rep.finishLayers()
	return nil
}
