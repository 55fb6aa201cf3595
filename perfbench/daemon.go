package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// daemon is one `tomo serve` child process.
type daemon struct {
	cmd  *exec.Cmd
	base string // http://host:port
	peer string // ring identity in cluster mode
	// exited is closed once the process has ended; waitErr is then set.
	exited  chan struct{}
	waitErr error
}

// fleet owns the daemons of a run; stop kills and reaps them all, and
// every exit path of a workload runs it.
type fleet struct {
	bin string
	ds  []*daemon
}

// errExited marks a daemon that ended before it was ready.
var errExited = errors.New("tomo serve exited before ready")

// launchAttempts bounds how often launch tries fresh ports: a reserved
// port is released before its daemon binds it, and an outgoing
// connection can take it in between.
const launchAttempts = 3

// launch starts n daemons (a ring when n > 1) on free loopback ports and
// waits until each answers /readyz. Each runs one demo-loop epoch, which
// /readyz needs, and then no background epochs. It also returns when the
// attempt that succeeded began, so a set-up time leaves out attempts lost
// to a port clash.
func (f *fleet) launch(ctx context.Context, n int) ([]*daemon, time.Time, error) {
	if f.bin == "" {
		return nil, time.Time{}, fmt.Errorf("no tomo binary given (-tomo)")
	}
	for attempt := 1; ; attempt++ {
		start := time.Now()
		ds, err := f.start(ctx, n)
		if err == nil {
			return ds, start, nil
		}
		if !errors.Is(err, errExited) || attempt == launchAttempts || ctx.Err() != nil {
			return nil, start, err
		}
		fmt.Fprintf(os.Stderr, "perfbench: launch attempt %d: %v; trying fresh ports\n", attempt, err)
	}
}

func (f *fleet) start(ctx context.Context, n int) ([]*daemon, error) {
	ports, err := freePorts(2 * n)
	if err != nil {
		return nil, err
	}
	addr := func(p int) string { return "127.0.0.1:" + strconv.Itoa(p) }
	ds := make([]*daemon, n)
	for i := range ds {
		args := []string{"serve", "-addr", addr(ports[i]), "-epochs", "1", "-interval", "1ms"}
		d := &daemon{base: "http://" + addr(ports[i]), exited: make(chan struct{})}
		if n > 1 {
			var peers []string
			for j := 0; j < n; j++ {
				if j != i {
					peers = append(peers, addr(ports[n+j]))
				}
			}
			d.peer = addr(ports[n+i])
			args = append(args, "-peer-addr", d.peer, "-peers", strings.Join(peers, ","))
		}
		d.cmd = exec.Command(f.bin, args...)
		d.cmd.Stdout = io.Discard
		d.cmd.Stderr = os.Stderr
		// The kernel kills a daemon whose parent dies, so none outlives a
		// benchmark that is itself killed.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := d.cmd.Start(); err != nil {
			f.stop()
			return nil, fmt.Errorf("start tomo serve: %w", err)
		}
		go func() {
			d.waitErr = d.cmd.Wait()
			close(d.exited)
		}()
		f.ds = append(f.ds, d)
		ds[i] = d
	}
	for _, d := range ds {
		if err := d.waitReady(ctx, 20*time.Second); err != nil {
			f.stop()
			return nil, err
		}
	}
	return ds, nil
}

// alive returns an errAbort error naming the first daemon that exited.
func (f *fleet) alive() error {
	for _, d := range f.ds {
		select {
		case <-d.exited:
			return fmt.Errorf("%w: tomo serve at %s exited mid-run: %v", errAbort, d.base, d.waitErr)
		default:
		}
	}
	return nil
}

// stop kills every daemon of the fleet and waits for each to end.
func (f *fleet) stop() {
	for _, d := range f.ds {
		_ = d.cmd.Process.Kill() // fails only when the process already ended
	}
	for _, d := range f.ds {
		<-d.exited
	}
	f.ds = nil
}

// freePorts reserves n distinct free loopback ports by binding them all
// at once, then releases them for the daemons to bind.
func freePorts(n int) ([]int, error) {
	lns := make([]net.Listener, 0, n)
	defer func() {
		for _, ln := range lns {
			ln.Close()
		}
	}()
	ports := make([]int, n)
	for i := range ports {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, fmt.Errorf("reserve a port: %w", err)
		}
		lns = append(lns, ln)
		ports[i] = ln.Addr().(*net.TCPAddr).Port
	}
	return ports, nil
}

var probeClient = &http.Client{Timeout: 2 * time.Second}

func (d *daemon) waitReady(ctx context.Context, limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("%w: %s: %v", errExited, d.base, d.waitErr)
		default:
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		if resp, err := probeClient.Get(d.base + "/readyz"); err == nil {
			_, _ = io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("tomo serve at %s not ready after %v", d.base, limit)
		}
		time.Sleep(time.Millisecond)
	}
}

// usage reads the daemon's CPU time from /proc and its Go memory
// counters from /debug/vars.
func (d *daemon) usage() (procUsage, error) {
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", d.cmd.Process.Pid))
	if err != nil {
		return procUsage{}, fmt.Errorf("read daemon cpu time: %w", err)
	}
	// Fields after the parenthesised command name start at field 3
	// (state); utime and stime are fields 14 and 15, in clock ticks of
	// 1/100 s.
	rest := strings.Fields(string(stat[bytes.LastIndexByte(stat, ')')+1:]))
	if len(rest) < 13 {
		return procUsage{}, fmt.Errorf("short /proc stat for daemon %d", d.cmd.Process.Pid)
	}
	utime, err1 := strconv.ParseUint(rest[11], 10, 64)
	stime, err2 := strconv.ParseUint(rest[12], 10, 64)
	if err1 != nil || err2 != nil {
		return procUsage{}, fmt.Errorf("parse /proc stat for daemon %d", d.cmd.Process.Pid)
	}
	ms, err := d.memstats()
	if err != nil {
		return procUsage{}, err
	}
	return procUsage{
		cpu:        time.Duration(utime+stime) * 10 * time.Millisecond,
		totalAlloc: ms.TotalAlloc,
		numGC:      ms.NumGC,
	}, nil
}

// memStats is the part of a daemon's runtime.MemStats the benchmark reads.
type memStats struct {
	Sys        uint64
	HeapAlloc  uint64
	TotalAlloc uint64
	NumGC      uint32
}

func (d *daemon) memstats() (memStats, error) {
	resp, err := probeClient.Get(d.base + "/debug/vars")
	if err != nil {
		return memStats{}, fmt.Errorf("read daemon memstats: %w", err)
	}
	defer resp.Body.Close()
	var vars struct {
		Memstats memStats `json:"memstats"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&vars); err != nil {
		return memStats{}, fmt.Errorf("decode daemon memstats: %w", err)
	}
	return vars.Memstats, nil
}

// memAfterGC forces two collections in the daemon (the heap profile
// handler runs one for gc=1), as selfMem does, and returns its memstats
// after them.
func (d *daemon) memAfterGC() (memStats, error) {
	for k := 0; k < 2; k++ {
		resp, err := probeClient.Get(d.base + "/debug/pprof/heap?gc=1")
		if err != nil {
			return memStats{}, fmt.Errorf("force daemon gc: %w", err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return memStats{}, fmt.Errorf("force daemon gc: HTTP %d", resp.StatusCode)
		}
	}
	return d.memstats()
}

// fleetUsage sums usage over daemons.
func fleetUsage(ds []*daemon) (procUsage, error) {
	var total procUsage
	for _, d := range ds {
		u, err := d.usage()
		if err != nil {
			return procUsage{}, err
		}
		total.cpu += u.cpu
		total.totalAlloc += u.totalAlloc
		total.numGC += u.numGC
	}
	return total, nil
}

// fleetMem sums the daemons' memory after a forced collection: the live
// heap, and the memory obtained from the OS.
func fleetMem(ds []*daemon) (mem, error) {
	var total mem
	for _, d := range ds {
		ms, err := d.memAfterGC()
		if err != nil {
			return mem{}, err
		}
		total.live += ms.HeapAlloc
		total.sys += ms.Sys
	}
	return total, nil
}
