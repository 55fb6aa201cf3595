package main

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"robusttomo/internal/cluster"
	"robusttomo/internal/service"
	"robusttomo/internal/topo"
)

// setupRepeats is how many times a run launches its system and warms it
// up; setup_s is the median.
const setupRepeats = 9

// replaySample bounds how many traced ops a traced run replays through
// the layers.
const replaySample = 40

// jobWorkload is an HTTP workload: daemons and a stream of job ops.
type jobWorkload struct {
	nodes int
	// stream generates n ops from one RNG stream of the seed.
	stream func(stream uint64, n int) ([]jobOp, error)
	// perSecond bounds the op rate, to size the pre-generated stream.
	perSecond int
	warmOps   int
}

// runMonteRoMe: one daemon, cold MonteRoMe jobs on AS1755.
func runMonteRoMe(ctx context.Context, cfg config) (*report, error) {
	in, err := paperInstance(topo.AS1755, 400)
	if err != nil {
		return nil, err
	}
	base := newSelBase(in)
	return runJobs(ctx, cfg, jobWorkload{
		nodes: 1,
		stream: func(stream uint64, n int) ([]jobOp, error) {
			ops := monteRoMeStream(newRNG(cfg.seed, stream), base, n)
			return ops, keyOps(ops)
		},
		perSecond: 30, // ops take about 100 ms
		warmOps:   2,
	})
}

// runRing: three daemons, the ring-mixed op stream.
func runRing(ctx context.Context, cfg config) (*report, error) {
	in, err := paperInstance(topo.AS3257, 1600)
	if err != nil {
		return nil, err
	}
	base := newSelBase(in)
	lossRNG := newRNG(cfg.seed, streamLoss)
	lg := newLossGen(lossRNG)
	return runJobs(ctx, cfg, jobWorkload{
		nodes: 3,
		stream: func(stream uint64, n int) ([]jobOp, error) {
			ops := ringStream(newRNG(cfg.seed, stream), base, lg, n)
			return ops, keyOps(ops)
		},
		perSecond: 70, // about 40 ops/s; every cold op is keyed up front
		warmOps:   len(ringCycle),
	})
}

// runJobs generates the op streams, launches and warms the daemons
// setupRepeats times, runs the closed loop, and checks every result.
func runJobs(ctx context.Context, cfg config, w jobWorkload) (*report, error) {
	capOps := w.perSecond*int(cfg.seconds/time.Second) + minOps
	// Every input is generated before any daemon starts.
	ops, err := w.stream(streamOps, capOps)
	if err != nil {
		return nil, err
	}
	warm, err := w.stream(streamWarm, w.warmOps)
	if err != nil {
		return nil, err
	}
	var traced, probe []jobOp
	if cfg.trace {
		if traced, err = w.stream(streamTraced, capOps); err != nil {
			return nil, err
		}
		if w.nodes > 1 {
			if probe, err = w.stream(streamProbe, 8*forwardProbes); err != nil {
				return nil, err
			}
		}
	}

	f := &fleet{bin: cfg.tomo}
	defer f.stop()
	a := newAPI()
	defer a.close()
	var ds []*daemon
	setups := make([]float64, setupRepeats)
	for k := range setups {
		f.stop()
		var t0 time.Time
		if ds, t0, err = f.launch(ctx, w.nodes); err != nil {
			return nil, err
		}
		route(warm, members(ds))
		for i, op := range warm {
			if _, err := a.job(ctx, ds[op.node].base, op.body, nil, 0, i); err != nil {
				return nil, fmt.Errorf("warm-up op %d: %w", i, firstErr(f.alive(), err))
			}
		}
		setups[k] = time.Since(t0).Seconds()
	}
	route(ops, members(ds))
	route(traced, members(ds))
	route(probe, members(ds))

	rep := newReport()
	usage0, err := fleetUsage(ds)
	if err != nil {
		return nil, err
	}
	stats0, err := fleetStats(ctx, a, ds)
	if err != nil {
		return nil, err
	}
	ph, runs, err := jobPhase(ctx, a, f, ds, ops, cfg.seconds, nil, func() (mem, error) { return fleetMem(ds) })
	if err != nil {
		return nil, err
	}
	usage1, err := fleetUsage(ds)
	if err != nil {
		return nil, err
	}
	stats1, err := fleetStats(ctx, a, ds)
	if err != nil {
		return nil, err
	}
	noteJobShares(rep, ops[:ph.attempted])

	var tr *tracer
	var tph *phase
	var truns []jobRun
	if cfg.trace {
		tr = newTracer()
		if tph, truns, err = jobPhase(ctx, a, f, ds, traced, cfg.seconds, tr, nil); err != nil {
			return nil, err
		}
		if w.nodes > 1 {
			overhead, err := forwardOverhead(ctx, a, ds, probe)
			if err != nil {
				return nil, err
			}
			rep.set("cluster.forward_overhead_ms", "ms", overhead)
		}
	}
	if err := f.alive(); err != nil {
		return nil, err
	}
	f.stop()

	if !cfg.trace {
		if err := rep.endToEnd(ph, setups); err != nil {
			return nil, err
		}
		rep.checkMargin(ph)
	} else {
		rep.traceCounts(ph, tph)
	}
	if err := verifyJobs(ctx, rep, ops, runs); err != nil {
		return nil, err
	}
	if !cfg.trace {
		return rep, nil
	}
	if err := verifyJobs(ctx, rep, traced, truns); err != nil {
		return nil, err
	}
	rep.setRuntime(usage0, usage1, ph.attempted)
	setServiceStats(rep, stats0, stats1, ph.attempted)
	if err := jobLayerMetrics(ctx, rep, tr, traced, truns); err != nil {
		return nil, err
	}
	if err := traceTail(rep, tr, cfg, ph, tph); err != nil {
		return nil, err
	}
	return rep, nil
}

// jobPhase runs the closed loop over ops, recording spans into tr.
func jobPhase(ctx context.Context, a *api, f *fleet, ds []*daemon, ops []jobOp, d time.Duration, tr *tracer, readMem func() (mem, error)) (*phase, []jobRun, error) {
	runs := make([]jobRun, len(ops))
	ph, err := runPhase(ctx, d, len(ops), func(i int) (opResult, error) {
		op := ops[i]
		root := tr.begin("op", 0, i)
		t0 := time.Now()
		run, err := a.job(ctx, ds[op.node].base, op.body, tr, root, i)
		lat := time.Since(t0)
		tr.end(root)
		runs[i] = run
		if err != nil {
			return opResult{class: op.class}, firstErr(f.alive(), err)
		}
		return opResult{class: op.class, lat: lat}, nil
	}, readMem)
	if err != nil {
		return nil, nil, err
	}
	return ph, runs[:ph.attempted], nil
}

// verifyJobs checks every completed op's result against an in-process
// run of the same spec, bit for bit, and a repeat's result against the
// bytes the cold op got from another node.
func verifyJobs(ctx context.Context, rep *report, ops []jobOp, runs []jobRun) error {
	var cold [][]byte
	slot := map[int]int{}
	for i := range runs {
		if ops[i].ref == i {
			slot[i] = len(cold)
			cold = append(cold, ops[i].body)
		}
	}
	refs, err := references(ctx, cold)
	if err != nil {
		return err
	}
	for i, run := range runs {
		if run.result == nil {
			continue // failed in the phase, already counted
		}
		op := ops[i]
		if err := checkJob(run, refs[slot[op.ref]]); err != nil {
			rep.mismatch(i, err)
			continue
		}
		if op.ref != i && runs[op.ref].result != nil && !bytes.Equal(run.result, runs[op.ref].result) {
			rep.mismatch(i, fmt.Errorf("job %.12s: daemon %d returned other bytes than daemon %d", run.id, op.node, ops[op.ref].node))
		}
	}
	return nil
}

// noteJobShares reports the measured op shares by class, cold or repeat,
// and forwarded or local.
func noteJobShares(rep *report, ops []jobOp) {
	n := float64(len(ops))
	var repeat, fwd int
	for i, op := range ops {
		if op.ref != i {
			repeat++
		}
		if op.forwarded {
			fwd++
		}
	}
	rep.notef("op shares: cold=%.3f repeat=%.3f forwarded=%.3f local=%.3f", 1-float64(repeat)/n, float64(repeat)/n, float64(fwd)/n, 1-float64(fwd)/n)
}

func members(ds []*daemon) []string {
	out := make([]string, len(ds))
	for i, d := range ds {
		out[i] = d.peer
	}
	return out
}

func firstErr(errs ...error) error {
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// forwardProbes is how many cold ProbRoMe ops the traced ring run sends
// to the owner and to a non-owner each, to measure forwarding overhead.
const forwardProbes = 24

// forwardOverhead sends cold ProbRoMe jobs alternately to their owner and
// to a non-owner and returns the difference of the two latency medians.
func forwardOverhead(ctx context.Context, a *api, ds []*daemon, probe []jobOp) (float64, error) {
	var local, remote []float64
	for i, op := range probe {
		if op.class != classProbRoMe || op.ref != i {
			continue
		}
		if len(local) >= forwardProbes && len(remote) >= forwardProbes {
			break
		}
		node := op.node // a non-owner
		toOwner := len(local) <= len(remote)
		if toOwner {
			node = ownerOf(op, ds)
		}
		t0 := time.Now()
		if _, err := a.job(ctx, ds[node].base, op.body, nil, 0, i); err != nil {
			return 0, fmt.Errorf("forward probe: %w", err)
		}
		ms := float64(time.Since(t0)) / 1e6
		if toOwner {
			local = append(local, ms)
		} else {
			remote = append(remote, ms)
		}
	}
	return median(remote) - median(local), nil
}

func ownerOf(op jobOp, ds []*daemon) int {
	name, _ := cluster.NewRing(members(ds), 0).Owner(op.key, nil)
	for i, d := range ds {
		if d.peer == name {
			return i
		}
	}
	return 0
}

// fleetStat is the part of /api/v1/stats the layer metrics read, summed
// over the fleet.
type fleetStat struct {
	submitted, cacheHits                       uint64
	nodeSubmitted, forwards, fills, hedge, fbk uint64
}

func fleetStats(ctx context.Context, a *api, ds []*daemon) (fleetStat, error) {
	var s fleetStat
	if len(ds) == 1 {
		var st service.Stats
		if err := a.stats(ctx, ds[0].base, &st); err != nil {
			return s, err
		}
		s.submitted, s.cacheHits = st.Submitted, st.CacheHits
		return s, nil
	}
	var snap cluster.ClusterSnapshot
	if err := a.stats(ctx, ds[0].base, &snap); err != nil {
		return s, err
	}
	if len(snap.Unreachable) > 0 {
		return s, fmt.Errorf("stats: unreachable peers %v", snap.Unreachable)
	}
	for _, n := range snap.Nodes {
		s.submitted += n.Service.Submitted
		s.cacheHits += n.Service.CacheHits
		s.nodeSubmitted += n.Submitted
		s.forwards += n.Forwards
		s.fills += n.RemoteFills
		s.hedge += n.HedgeWins
		s.fbk += n.Fallbacks
	}
	return s, nil
}

// setServiceStats sets the service and cluster ratios from stats read
// around the untraced phase.
func setServiceStats(rep *report, s0, s1 fleetStat, ops int) {
	ratio := func(a, b uint64) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	rep.set("service.cache_hit_ratio", "ratio", ratio(s1.cacheHits-s0.cacheHits, s1.submitted-s0.submitted))
	if s1.nodeSubmitted == 0 {
		return // one daemon: no cluster plane
	}
	rep.set("cluster.forward_share", "ratio", ratio(s1.forwards-s0.forwards, s1.nodeSubmitted-s0.nodeSubmitted))
	rep.set("cluster.fill_hit_ratio", "ratio", ratio(s1.fills-s0.fills, s1.forwards-s0.forwards))
	rep.set("cluster.hedge_wins", "1/op", float64(s1.hedge-s0.hedge)/float64(ops))
	rep.set("cluster.fallbacks", "1/op", float64(s1.fbk-s0.fbk)/float64(ops))
}
