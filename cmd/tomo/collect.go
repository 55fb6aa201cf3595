package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"strings"
	"time"

	"robusttomo/internal/agent"
)

// runCollect demonstrates the fault-tolerant collection plane end to end:
// real TCP monitors on the example network, a NOC with retries and circuit
// breakers, and a monitor killed mid-run. The loop degrades — partial
// epochs, failed paths, breaker opening — instead of aborting. With
// -strict the command exits non-zero when the final epoch was degraded
// (or, in -fail-fast mode, failed), so scripted health checks can gate on
// a clean steady state.
func runCollect(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("collect", flag.ContinueOnError)
	epochs := fs.Int("epochs", 12, "epochs to run")
	killEpoch := fs.Int("kill-epoch", 4, "epoch at which one monitor is killed (-1: never)")
	retries := fs.Int("retries", 2, "max connection attempts per monitor per epoch")
	threshold := fs.Int("breaker-threshold", 3, "consecutive failures before the breaker opens")
	cooldown := fs.Duration("cooldown", 100*time.Millisecond, "breaker cool-down before a half-open probe")
	failFast := fs.Bool("fail-fast", false, "abort degraded epochs instead of keeping partial data")
	strict := fs.Bool("strict", false, "exit non-zero if the final epoch was degraded")
	seed := fs.Uint64("seed", 2014, "random seed")
	shards := fs.Int("shards", 0, "NOC session-table shards (0: default)")
	watermark := fs.Duration("watermark", 0, "epoch watermark: how long an epoch waits for missing results (0: default 2s)")
	encoding := fs.String("batch-encoding", "binary", "probe frame encoding: binary or json")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *epochs <= 0 {
		return fmt.Errorf("epochs must be positive")
	}
	enc, err := agent.ParseEncoding(*encoding)
	if err != nil {
		return err
	}

	d, err := newDemoLoop(demoConfig{
		Horizon:   *epochs,
		Retries:   *retries,
		Threshold: *threshold,
		Cooldown:  *cooldown,
		FailFast:  *failFast,
		Seed:      *seed,
		Shards:    *shards,
		Watermark: *watermark,
		Encoding:  enc,
	})
	if err != nil {
		return err
	}
	defer d.Close()

	fmt.Fprintf(stdout, "fault-tolerant collection on %s: %d monitors, %d selected paths, %d epochs (%s frames)\n",
		d.Ex.Graph, len(d.Addrs), len(d.Runner.StaticSelection()), *epochs, enc)
	if *killEpoch >= 0 {
		fmt.Fprintf(stdout, "monitor %s dies before epoch %d (retries %d, breaker threshold %d, cooldown %v)\n",
			d.Victim, *killEpoch, *retries, *threshold, *cooldown)
	}
	fmt.Fprintln(stdout, "epoch  probed  survived  rank  health")
	ctx := context.Background()
	finalDegraded := false
	for e := 0; e < *epochs; e++ {
		if e == *killEpoch {
			d.KillVictim()
		}
		rep, err := d.Runner.Step(ctx)
		if err != nil {
			// FailFast mode surfaces degraded epochs as errors; report and
			// keep going so the breaker arc is still visible.
			fmt.Fprintf(stdout, "%5d  collection failed: %v\n", e, err)
			finalDegraded = true
			continue
		}
		health := "ok"
		finalDegraded = rep.Collection.Degraded
		if rep.Collection.Degraded {
			health = fmt.Sprintf("degraded: lost %d path(s) via %s after %d attempt(s)",
				rep.Collection.LostPaths, strings.Join(rep.Collection.FailedMonitors, ","), rep.Collection.Attempts)
		}
		fmt.Fprintf(stdout, "%5d  %6d  %8d  %4d  %s\n", rep.Epoch, rep.Probed, rep.Survived, rep.Rank, health)
	}
	fmt.Fprintf(stdout, "breakers: %s\n", d.BreakerLine())

	_, ident, err := d.Runner.Estimates(1, 1e-6)
	if err != nil {
		return err
	}
	identified := 0
	for _, ok := range ident {
		if ok {
			identified++
		}
	}
	fmt.Fprintf(stdout, "inference from the surviving data: %d/%d links identified\n", identified, d.PM.NumLinks())
	if *strict && finalDegraded {
		return fmt.Errorf("strict: final epoch was degraded")
	}
	return nil
}
