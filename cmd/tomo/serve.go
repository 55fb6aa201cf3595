package main

import (
	"context"
	"encoding/json"
	"expvar"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"syscall"
	"time"

	"robusttomo/internal/agent"
	"robusttomo/internal/cluster"
	_ "robusttomo/internal/loss" // register the loss engine
	"robusttomo/internal/obs"
	"robusttomo/internal/service"
	"robusttomo/internal/sim"
)

// serveConfig parameterizes the daemon; runServe fills it from flags, the
// smoke tests construct it directly (with port 0 and short intervals).
type serveConfig struct {
	Addr      string
	Interval  time.Duration
	MaxEpochs int // 0: run until the internal horizon, then idle
	KillEpoch int // -1: never
	Mode      sim.Mode
	Retries   int
	Threshold int
	Cooldown  time.Duration
	Seed      uint64

	// Selection-service knobs (POST /api/v1/jobs). Zeros take the
	// service defaults.
	Workers    int
	QueueDepth int
	CacheBytes int64
	RetryAfter time.Duration
	// beforeRun is the service's test seam; production leaves it nil.
	beforeRun func(service.JobSpec)

	// Cluster knobs (-peers and friends). Empty Peers means single-node
	// mode: no peer listener, no routing layer, the service is hit
	// directly.
	Peers        []string
	PeerAddr     string // peer-protocol listen address and ring identity
	RingReplicas int
	HedgeAfter   time.Duration
	// peerLn is the cluster test seam: a pre-bound peer listener whose
	// address is this node's ring identity (tests bind port 0 first so
	// peers can reference each other). Production leaves it nil and
	// PeerAddr is bound here.
	peerLn net.Listener
}

// serveHorizon bounds the failure schedule when -epochs is 0: large enough
// that an unattended daemon runs for days at the default interval, small
// enough that the precomputed schedule stays cheap.
const serveHorizon = 1 << 17

// defaultPeerAddr is where the peer protocol listens in cluster mode
// (one port above the default HTTP address).
const defaultPeerAddr = "127.0.0.1:9321"

// splitPeers turns the -peers flag value into the peer list. Entries
// are trimmed but empties are kept: `-peers a:1,,b:2` should fail peer
// validation loudly, not silently drop a member.
func splitPeers(flagVal string) []string {
	if flagVal == "" {
		return nil
	}
	parts := strings.Split(flagVal, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// server is the long-running observability daemon: the demo closed loop
// stepping on a ticker, with the obs registry exported over HTTP.
type server struct {
	cfg  serveConfig
	d    *demoLoop
	reg  *obs.Registry
	svc  *service.Service
	ln   net.Listener
	mux  *http.ServeMux
	http *http.Server

	// Cluster mode only (nil otherwise): the routing node and its peer
	// protocol listener.
	node   *cluster.Node
	peerLn net.Listener

	mu       sync.Mutex
	ready    bool
	done     bool // loop finished (horizon or MaxEpochs reached)
	lastRep  sim.EpochReport
	degraded int
	// breakers are the per-monitor breaker states as the last epoch left
	// them, recorded with lastRep: a breaker trips inside an epoch, before
	// its report exists, so reading the NOC live would let /healthz flip
	// while /statusz still shows the previous epoch.
	breakers map[string]agent.BreakerState
}

// newServer wires the loop, the registry and the HTTP surface, and binds
// the listener (so Addr() is concrete even with port 0).
func newServer(cfg serveConfig) (*server, error) {
	if cfg.Interval <= 0 {
		cfg.Interval = 500 * time.Millisecond
	}
	horizon := cfg.MaxEpochs
	if horizon <= 0 {
		horizon = serveHorizon
	}
	reg := obs.New()
	d, err := newDemoLoop(demoConfig{
		Horizon:   horizon,
		Retries:   cfg.Retries,
		Threshold: cfg.Threshold,
		Cooldown:  cfg.Cooldown,
		Seed:      cfg.Seed,
		Mode:      cfg.Mode,
		Observer:  reg,
	})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", cfg.Addr)
	if err != nil {
		d.Close()
		return nil, err
	}
	svc := service.New(service.Config{
		Workers:    cfg.Workers,
		QueueDepth: cfg.QueueDepth,
		CacheBytes: cfg.CacheBytes,
		RetryAfter: cfg.RetryAfter,
		Observer:   reg,
		BeforeRun:  cfg.beforeRun,
	})
	s := &server{cfg: cfg, d: d, reg: reg, svc: svc, ln: ln}
	if len(cfg.Peers) > 0 {
		if err := s.startCluster(); err != nil {
			cctx, ccancel := context.WithTimeout(context.Background(), time.Second)
			_ = svc.Close(cctx)
			ccancel()
			ln.Close()
			d.Close()
			return nil, err
		}
	}
	// A second server in the same process (tests) hits the
	// already-published name; the expvar surface then reflects the first
	// registry, which is fine for a debug endpoint.
	_ = reg.PublishExpvar("tomo")
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/statusz", s.handleStatusz)
	s.mux.Handle("/debug/vars", expvar.Handler())
	s.mux.HandleFunc("/debug/pprof/", pprof.Index)
	s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	s.mountJobAPI()
	s.http = &http.Server{Handler: s.mux}
	return s, nil
}

// Addr returns the bound listen address.
func (s *server) Addr() string { return s.ln.Addr().String() }

// startCluster binds the peer-protocol listener and stands up the
// routing node. The ring identity is cfg.PeerAddr when it names a
// concrete port (every node must then list exactly that string in its
// peers' -peers flags); with port 0 (tests) the identity is the bound
// address.
func (s *server) startCluster() error {
	pln := s.cfg.peerLn
	if pln == nil {
		addr := s.cfg.PeerAddr
		if addr == "" {
			addr = defaultPeerAddr
		}
		var err error
		pln, err = net.Listen("tcp", addr)
		if err != nil {
			return fmt.Errorf("cluster: bind peer listener: %w", err)
		}
	}
	self := s.cfg.PeerAddr
	if self == "" || strings.HasSuffix(self, ":0") {
		self = pln.Addr().String()
	}
	node, err := cluster.New(cluster.Config{
		Self:         self,
		Peers:        s.cfg.Peers,
		RingReplicas: s.cfg.RingReplicas,
		HedgeAfter:   s.cfg.HedgeAfter,
		Service:      s.svc,
		Transport:    cluster.NewTCPTransport(),
		Observer:     s.reg,
	})
	if err != nil {
		if pln != s.cfg.peerLn {
			pln.Close()
		}
		return err
	}
	s.node = node
	s.peerLn = pln
	return nil
}

func (s *server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = s.reg.WritePrometheus(w)
}

// openBreakers returns the monitors whose circuit breaker the last epoch
// left open, sorted by name.
func (s *server) openBreakers() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	var open []string
	for name, st := range s.breakers {
		if st == agent.BreakerOpen {
			open = append(open, name)
		}
	}
	sort.Strings(open)
	return open
}

// handleHealthz is breaker-aware liveness: any open breaker means the
// collection plane is degraded and the daemon reports 503 with the
// offending monitors, so orchestrators can alert or restart.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if open := s.openBreakers(); len(open) > 0 {
		http.Error(w, "unhealthy: open breakers: "+strings.Join(open, ","), http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports 200 once the loop has completed at least one epoch.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	ready := s.ready
	s.mu.Unlock()
	if !ready {
		http.Error(w, "not ready: no epoch completed", http.StatusServiceUnavailable)
		return
	}
	fmt.Fprintln(w, "ok")
}

// serveStatus is the /statusz JSON document.
type serveStatus struct {
	Mode           string            `json:"mode"`
	Epoch          int               `json:"epoch"`
	Probed         int               `json:"probed"`
	Survived       int               `json:"survived"`
	Rank           int               `json:"rank"`
	Identifiable   int               `json:"identifiable"`
	Degraded       bool              `json:"degraded"`
	DegradedEpochs int               `json:"degraded_epochs"`
	LoopDone       bool              `json:"loop_done"`
	Monitors       map[string]string `json:"monitors"`
	RecentEvents   []obs.Event       `json:"recent_events"`
}

func (s *server) handleStatusz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	rep := s.lastRep
	st := serveStatus{
		Mode:           "static",
		Epoch:          rep.Epoch,
		Probed:         rep.Probed,
		Survived:       rep.Survived,
		Rank:           rep.Rank,
		Identifiable:   rep.Identifiable,
		Degraded:       rep.Collection.Degraded,
		DegradedEpochs: s.degraded,
		LoopDone:       s.done,
		Monitors:       make(map[string]string, len(s.breakers)),
	}
	for name, bs := range s.breakers {
		st.Monitors[name] = bs.String()
	}
	s.mu.Unlock()
	if s.cfg.Mode == sim.Learning {
		st.Mode = "learning"
	}
	st.RecentEvents = s.reg.Events()
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(st)
}

// loop steps the closed loop every interval until the context is
// cancelled or the epoch budget is exhausted; HTTP keeps serving either
// way.
func (s *server) loop(ctx context.Context) {
	horizon := s.cfg.MaxEpochs
	if horizon <= 0 {
		horizon = serveHorizon
	}
	tick := time.NewTicker(s.cfg.Interval)
	defer tick.Stop()
	for epoch := 0; epoch < horizon; epoch++ {
		if epoch == s.cfg.KillEpoch {
			s.reg.Event("serve.kill_victim", s.d.Victim)
			s.d.KillVictim()
		}
		rep, err := s.d.Runner.Step(ctx)
		if err != nil {
			// FailFast is never set here, so any error is fatal wiring
			// trouble; record it and stop the loop (HTTP stays up for
			// debugging).
			s.reg.Event("serve.loop_error", err.Error())
			break
		}
		breakers := s.d.NOC.BreakerStates()
		s.mu.Lock()
		s.ready = true
		s.lastRep = rep
		s.breakers = breakers
		if rep.Collection.Degraded {
			s.degraded++
		}
		s.mu.Unlock()
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
	s.mu.Lock()
	s.done = true
	s.mu.Unlock()
	s.reg.Event("serve.loop_done", "")
}

// Run serves HTTP and steps the loop until ctx is cancelled (typically by
// SIGINT/SIGTERM), then shuts the listener down gracefully.
func (s *server) Run(ctx context.Context) error {
	lctx, stopLoop := context.WithCancel(ctx)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		s.loop(lctx)
	}()

	errc := make(chan error, 1)
	go func() { errc <- s.http.Serve(s.ln) }()

	// Cluster mode: serve the peer protocol for as long as HTTP runs,
	// and a little longer — peers may still be fetching results while
	// this node drains.
	pctx, stopPeers := context.WithCancel(context.Background())
	defer stopPeers()
	var peerWG sync.WaitGroup
	if s.node != nil {
		peerWG.Add(1)
		go func() {
			defer peerWG.Done()
			if perr := cluster.ServePeers(pctx, s.peerLn, s.node); perr != nil {
				s.reg.Event("serve.peer_listener_error", perr.Error())
			}
		}()
	}

	var err error
	select {
	case <-ctx.Done():
		sctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		err = s.http.Shutdown(sctx)
		cancel()
	case err = <-errc:
	}
	stopLoop()
	wg.Wait()
	// Drain the cluster node first (outstanding forwards finish or are
	// cut), then stop answering peers, then drain the local service.
	if s.node != nil {
		nctx, ncancel := context.WithTimeout(context.Background(), 5*time.Second)
		if nerr := s.node.Close(nctx); nerr != nil {
			s.reg.Event("serve.cluster_drain_cut_short", nerr.Error())
		}
		ncancel()
		stopPeers()
		peerWG.Wait()
	}
	// Drain the selection service after the listener stops accepting new
	// submissions: queued jobs are canceled, running jobs get the drain
	// window, stragglers are cut at the deadline.
	dctx, dcancel := context.WithTimeout(context.Background(), 5*time.Second)
	if derr := s.svc.Close(dctx); derr != nil {
		s.reg.Event("serve.drain_cut_short", derr.Error())
	}
	dcancel()
	s.d.Close()
	if err == http.ErrServerClosed {
		err = nil
	}
	return err
}

// runServe boots the observability daemon: the demo closed loop stepping
// continuously, with /metrics (Prometheus text), /healthz, /readyz,
// /statusz (JSON), /debug/vars (expvar) and /debug/pprof on one listener.
// SIGINT/SIGTERM shut it down gracefully.
func runServe(args []string, out io.Writer) error {
	fs := flag.NewFlagSet("serve", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:8321", "listen address (port 0 picks a free port)")
	interval := fs.Duration("interval", 500*time.Millisecond, "delay between epochs")
	epochs := fs.Int("epochs", 0, "epochs to run before idling (0: keep running)")
	killEpoch := fs.Int("kill-epoch", -1, "epoch at which one monitor is killed (-1: never)")
	mode := fs.String("mode", "static", "static (known distribution) or learning")
	retries := fs.Int("retries", 2, "max connection attempts per monitor per epoch")
	threshold := fs.Int("breaker-threshold", 3, "consecutive failures before the breaker opens")
	cooldown := fs.Duration("cooldown", 10*time.Second, "breaker cool-down before a half-open probe")
	seed := fs.Uint64("seed", 2014, "random seed")
	workers := fs.Int("workers", 0, "selection-service worker pool size (0: GOMAXPROCS)")
	queueDepth := fs.Int("queue-depth", 0, "queued jobs before load shedding kicks in (0: default 64)")
	cacheMB := fs.Int("cache-mb", 16, "result cache byte budget in MiB")
	retryAfter := fs.Duration("retry-after", time.Second, "Retry-After hint attached to shed submissions")
	peers := fs.String("peers", "", "comma-separated peer addresses; non-empty enables cluster mode")
	peerAddr := fs.String("peer-addr", defaultPeerAddr, "peer-protocol listen address and ring identity (cluster mode)")
	ringReplicas := fs.Int("ring-replicas", 0, "virtual nodes per cluster member (0: default 64)")
	hedgeAfter := fs.Duration("hedge-after", 0, "delay before hedging a slow forward to the successor replica (0: default 150ms)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	simMode := sim.Static
	switch *mode {
	case "static":
	case "learning":
		simMode = sim.Learning
	default:
		return fmt.Errorf("unknown mode %q", *mode)
	}

	s, err := newServer(serveConfig{
		Addr:      *addr,
		Interval:  *interval,
		MaxEpochs: *epochs,
		KillEpoch: *killEpoch,
		Mode:      simMode,
		Retries:   *retries,
		Threshold: *threshold,
		Cooldown:  *cooldown,
		Seed:      *seed,

		Workers:    *workers,
		QueueDepth: *queueDepth,
		CacheBytes: int64(*cacheMB) << 20,
		RetryAfter: *retryAfter,

		Peers:        splitPeers(*peers),
		PeerAddr:     *peerAddr,
		RingReplicas: *ringReplicas,
		HedgeAfter:   *hedgeAfter,
	})
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "tomo serve listening on http://%s (metrics /metrics, health /healthz, status /statusz, pprof /debug/pprof)\n", s.Addr())
	fmt.Fprintf(out, "selection service: POST /api/v1/jobs (workers %d, queue %d, cache %d MiB)\n",
		s.svc.Stats().Workers, s.svc.QueueDepth(), *cacheMB)
	if s.node != nil {
		fmt.Fprintf(out, "cluster: ring identity %s, %d peers, peer protocol on %s\n",
			s.node.Self(), len(s.cfg.Peers), s.peerLn.Addr())
	}
	fmt.Fprintf(out, "closed loop: %s mode, epoch every %v; SIGINT/SIGTERM to stop\n", *mode, *interval)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	err = s.Run(ctx)
	fmt.Fprintln(out, "tomo serve: shut down")
	return err
}
