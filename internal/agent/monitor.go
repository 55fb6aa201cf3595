package agent

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"sync"

	"robusttomo/internal/failure"
)

// LinkOracle answers, for a given epoch, the state of the simulated
// network: which links are up and what each link's additive metric is. It
// must be safe for concurrent use; implementations in this repository are
// immutable snapshots per epoch.
type LinkOracle interface {
	// Measure returns the end-to-end measurement over the links for the
	// epoch, with ok=false if any link is down.
	Measure(epoch int, links []int) (value float64, ok bool)
}

// Monitor is a TCP server playing the role of a vantage point at the
// network edge: it receives probe batches from the NOC, "sends the probes"
// (consults the link oracle), and returns the measurements in one frame.
type Monitor struct {
	name   string
	oracle LinkOracle

	ln        net.Listener
	mu        sync.Mutex
	wg        sync.WaitGroup
	done      chan struct{}
	closeOnce sync.Once

	// conns tracks live sessions so Close can tear them down: NOC
	// sessions are persistent (they span epochs), so draining the accept
	// loop alone would wait forever.
	conns map[net.Conn]struct{}

	probesServed int
}

// StartMonitor launches a monitor listening on addr (use "127.0.0.1:0" for
// an ephemeral port). The returned monitor serves until Close.
func StartMonitor(name, addr string, oracle LinkOracle) (*Monitor, error) {
	if oracle == nil {
		return nil, fmt.Errorf("agent: monitor %s needs a link oracle", name)
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("agent: listen %s: %w", addr, err)
	}
	return StartMonitorOn(name, ln, oracle)
}

// StartMonitorOn launches a monitor over an existing listener — the hook
// for fault injection (wrap the listener in a FaultyListener) and custom
// transports. The monitor takes ownership of the listener and closes it on
// Close.
func StartMonitorOn(name string, ln net.Listener, oracle LinkOracle) (*Monitor, error) {
	if oracle == nil {
		return nil, fmt.Errorf("agent: monitor %s needs a link oracle", name)
	}
	if ln == nil {
		return nil, fmt.Errorf("agent: monitor %s needs a listener", name)
	}
	m := &Monitor{name: name, oracle: oracle, ln: ln, done: make(chan struct{}), conns: make(map[net.Conn]struct{})}
	m.wg.Add(1)
	go m.acceptLoop()
	return m, nil
}

// Addr returns the monitor's listen address.
func (m *Monitor) Addr() string { return m.ln.Addr().String() }

// Name returns the monitor's name.
func (m *Monitor) Name() string { return m.name }

// ProbesServed returns how many probes this monitor has answered.
func (m *Monitor) ProbesServed() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.probesServed
}

func (m *Monitor) acceptLoop() {
	defer m.wg.Done()
	for {
		conn, err := m.ln.Accept()
		if err != nil {
			select {
			case <-m.done:
				return
			default:
				// Transient accept failure: keep serving.
				continue
			}
		}
		m.wg.Add(1)
		go func() {
			defer m.wg.Done()
			m.serve(conn)
		}()
	}
}

func (m *Monitor) serve(conn net.Conn) {
	m.mu.Lock()
	select {
	case <-m.done:
		m.mu.Unlock()
		conn.Close()
		return
	default:
	}
	m.conns[conn] = struct{}{}
	m.mu.Unlock()
	defer func() {
		m.mu.Lock()
		delete(m.conns, conn)
		m.mu.Unlock()
		conn.Close()
	}()
	r := bufio.NewReader(conn)
	w := bufio.NewWriter(conn)
	// scratch is the reusable encode buffer for batch replies: one codec
	// pass and one flush per batch, regardless of how many paths it holds.
	var scratch []byte
	for {
		msg, err := readMessage(r)
		if err != nil {
			return // peer closed or protocol error: drop the session
		}
		req, ok := msg.(*ProbeBatch)
		if !ok {
			return // results flowing the wrong way: terminate
		}
		// Measure the whole path batch and answer with one frame in the
		// encoding the request arrived in. The monitor name echoes the
		// batch's session identity, so one TCP connection can carry many
		// multiplexed monitor sessions.
		res := ResultBatch{
			Type:    MsgBatchResult,
			Epoch:   req.Epoch,
			Monitor: req.Monitor,
			Results: make([]BatchResult, len(req.Paths)),
		}
		if res.Monitor == "" {
			res.Monitor = m.name
		}
		for i := range req.Paths {
			p := &req.Paths[i]
			value, ok := m.oracle.Measure(req.Epoch, p.Links)
			res.Results[i] = BatchResult{PathID: p.PathID, OK: ok}
			if ok {
				res.Results[i].Value = value
			}
		}
		scratch, err = EncodeResultBatch(scratch[:0], req.enc, &res)
		if err != nil {
			return
		}
		// Count before replying, so a NOC holding the reply also sees
		// the count.
		m.mu.Lock()
		m.probesServed += len(req.Paths)
		m.mu.Unlock()
		if _, err := w.Write(scratch); err != nil {
			return
		}
		if err := w.Flush(); err != nil {
			return
		}
	}
}

// Close stops accepting connections, tears down live sessions (persistent
// NOC sessions would otherwise never end) and waits for their goroutines.
// Close is idempotent.
func (m *Monitor) Close() error {
	var err error
	m.closeOnce.Do(func() {
		close(m.done)
		err = m.ln.Close()
		m.mu.Lock()
		for conn := range m.conns {
			conn.Close()
		}
		m.mu.Unlock()
	})
	m.wg.Wait()
	if err != nil && !errors.Is(err, net.ErrClosed) {
		return err
	}
	return nil
}

// EpochOracle is the LinkOracle used across this repository's examples and
// tests: ground-truth link metrics plus a per-epoch failure scenario
// schedule. Epoch scenarios are fixed up front so every monitor observes a
// consistent network state.
type EpochOracle struct {
	metrics   []float64
	scenarios []failure.Scenario
}

// NewEpochOracle builds an oracle over ground-truth metrics and a schedule
// of failure scenarios (epoch e uses scenarios[e]; epochs beyond the
// schedule see a failure-free network).
func NewEpochOracle(metrics []float64, scenarios []failure.Scenario) (*EpochOracle, error) {
	if len(metrics) == 0 {
		return nil, fmt.Errorf("agent: no link metrics")
	}
	for _, sc := range scenarios {
		if len(sc.Failed) != len(metrics) {
			return nil, fmt.Errorf("agent: scenario covers %d links, metrics %d", len(sc.Failed), len(metrics))
		}
	}
	cp := make([]float64, len(metrics))
	copy(cp, metrics)
	return &EpochOracle{metrics: cp, scenarios: scenarios}, nil
}

var _ LinkOracle = (*EpochOracle)(nil)

// Measure implements LinkOracle.
func (o *EpochOracle) Measure(epoch int, links []int) (float64, bool) {
	var sc *failure.Scenario
	if epoch >= 0 && epoch < len(o.scenarios) {
		sc = &o.scenarios[epoch]
	}
	sum := 0.0
	for _, l := range links {
		if l < 0 || l >= len(o.metrics) {
			return 0, false
		}
		if sc != nil && sc.Failed[l] {
			return 0, false
		}
		sum += o.metrics[l]
	}
	return sum, true
}
