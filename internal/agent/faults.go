package agent

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"time"
)

// Deterministic fault injection for the collection plane. Faults are
// scripted: the n-th dial (FaultyDialer) or the n-th accepted connection
// (FaultyListener) misbehaves exactly as the script's n-th entry says, and
// everything beyond the script is clean. Tests drive refused connections,
// mid-stream resets, delays and garbage frames without timing races.

// DialFault scripts one NOC-side dial attempt.
type DialFault struct {
	// Refuse fails the dial outright (the monitor looks down).
	Refuse bool
	// Delay sleeps (context-aware) before the dial proceeds.
	Delay time.Duration
}

// errDialRefused is what a scripted refusal returns, wrapped by the
// transport's dial error.
var errDialRefused = errors.New("agent: fault: connection refused")

// FaultyDialer wraps a DialFunc with a per-dial fault script. Dial i
// (0-based, in call order across all monitors) applies script[i]; dials
// beyond the script pass through cleanly. Safe for concurrent use.
type FaultyDialer struct {
	inner DialFunc

	mu     sync.Mutex
	script []DialFault
	dials  int
}

// NewFaultyDialer scripts faults over inner (nil inner means the default
// net.Dialer).
func NewFaultyDialer(inner DialFunc, script ...DialFault) *FaultyDialer {
	if inner == nil {
		inner = (&net.Dialer{}).DialContext
	}
	return &FaultyDialer{inner: inner, script: script}
}

// DialContext implements DialFunc.
func (d *FaultyDialer) DialContext(ctx context.Context, network, addr string) (net.Conn, error) {
	d.mu.Lock()
	var f DialFault
	if d.dials < len(d.script) {
		f = d.script[d.dials]
	}
	i := d.dials
	d.dials++
	d.mu.Unlock()

	if f.Delay > 0 && !sleepCtx(ctx, f.Delay) {
		return nil, ctx.Err()
	}
	if f.Refuse {
		return nil, fmt.Errorf("%w (dial %d to %s)", errDialRefused, i, addr)
	}
	return d.inner(ctx, network, addr)
}

// Dials returns how many dial attempts have been made.
func (d *FaultyDialer) Dials() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials
}

// ConnFault scripts one monitor-side accepted connection.
type ConnFault struct {
	// Reject closes the connection immediately after accept: the NOC's
	// dial succeeds but the connection dies before any reply.
	Reject bool
	// AcceptDelay sleeps before the connection is handed to the server.
	AcceptDelay time.Duration
	// ServeReplies, when > 0, kills the connection after that many replies
	// — a monitor dying mid-epoch.
	ServeReplies int
	// GarbageReplies replaces the first n replies with a non-protocol
	// frame, exercising the NOC's decode path.
	GarbageReplies int
}

// FaultyListener wraps a net.Listener with a per-connection fault script:
// accepted connection i (0-based) behaves as script[i] says, later
// connections are clean. Pass it to StartMonitorOn. Safe for concurrent
// use.
type FaultyListener struct {
	net.Listener

	mu       sync.Mutex
	script   []ConnFault
	accepted int
}

// NewFaultyListener scripts faults over an existing listener.
func NewFaultyListener(ln net.Listener, script ...ConnFault) *FaultyListener {
	return &FaultyListener{Listener: ln, script: script}
}

// Accept implements net.Listener.
func (l *FaultyListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	var f ConnFault
	if l.accepted < len(l.script) {
		f = l.script[l.accepted]
	}
	l.accepted++
	l.mu.Unlock()

	if f.AcceptDelay > 0 {
		time.Sleep(f.AcceptDelay)
	}
	if f.Reject {
		conn.Close()
		return conn, nil // the server's first read fails and drops it
	}
	if f.ServeReplies > 0 || f.GarbageReplies > 0 {
		return &faultConn{Conn: conn, serveReplies: f.ServeReplies, garbage: f.GarbageReplies}, nil
	}
	return conn, nil
}

// Accepted returns how many connections have been accepted.
func (l *FaultyListener) Accepted() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.accepted
}

// faultConn corrupts the server's reply stream. The monitor flushes once
// per reply batch, so one Write call corresponds to one protocol frame.
type faultConn struct {
	net.Conn

	mu           sync.Mutex
	serveReplies int // kill the connection after this many replies (0 = unlimited)
	garbage      int // replace the first n replies with garbage frames
	writes       int
}

func (c *faultConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	if c.serveReplies > 0 && c.writes >= c.serveReplies {
		c.mu.Unlock()
		c.Conn.Close()
		return 0, errors.New("agent: fault: connection reset mid-stream")
	}
	c.writes++
	garbage := false
	if c.garbage > 0 {
		c.garbage--
		garbage = true
	}
	c.mu.Unlock()
	if garbage {
		if _, err := c.Conn.Write([]byte("!!not-a-protocol-frame!!\n")); err != nil {
			return 0, err
		}
		// Report p as written so the monitor keeps serving; only the NOC
		// sees the corruption.
		return len(p), nil
	}
	return c.Conn.Write(p)
}

// sleepCtx sleeps for d or until the context is done, reporting whether
// the full sleep completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
