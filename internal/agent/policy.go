package agent

import "time"

// RetryPolicy bounds how hard the NOC tries to send one monitor's probe
// batch within one epoch. Retries are immediate reconnects: the shard loop
// never sleeps (that would head-of-line block every session on the
// shard), and the breaker's cooldown is the backoff across epochs. A zero
// MaxAttempts takes the DefaultRetryPolicy value; set it to 1 to disable
// retries.
type RetryPolicy struct {
	// MaxAttempts is the total number of connect+send attempts per
	// monitor per epoch (not per probe). 0 means 3.
	MaxAttempts int
}

// DefaultRetryPolicy returns the retry defaults: 3 attempts.
func DefaultRetryPolicy() RetryPolicy {
	return RetryPolicy{MaxAttempts: 3}
}

// withDefaults fills zero fields with the default values.
func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts == 0 {
		p.MaxAttempts = DefaultRetryPolicy().MaxAttempts
	}
	return p
}

// BreakerPolicy configures the per-monitor circuit breaker. Zero fields
// take the DefaultBreakerPolicy values.
type BreakerPolicy struct {
	// FailureThreshold is the number of consecutive failed attempts that
	// trips the breaker from closed to open. A failed attempt is a send
	// that could not connect or write, a written batch whose connection
	// was lost before the answer came back, or a batch still unanswered
	// at the watermark. 0 means 5.
	FailureThreshold int
	// Cooldown is how long an open breaker rejects attempts before
	// admitting one half-open probe. 0 means 2s.
	Cooldown time.Duration
	// Disabled turns the breaker into a pass-through (every attempt is
	// admitted, state stays closed).
	Disabled bool
}

// DefaultBreakerPolicy returns the breaker defaults: trip after 5
// consecutive failures, 2s cooldown before the half-open probe.
func DefaultBreakerPolicy() BreakerPolicy {
	return BreakerPolicy{FailureThreshold: 5, Cooldown: 2 * time.Second}
}

// withDefaults fills zero fields with the default values.
func (p BreakerPolicy) withDefaults() BreakerPolicy {
	d := DefaultBreakerPolicy()
	if p.FailureThreshold == 0 {
		p.FailureThreshold = d.FailureThreshold
	}
	if p.Cooldown == 0 {
		p.Cooldown = d.Cooldown
	}
	return p
}

// Timeouts groups the collection deadlines. Zero fields take the
// DefaultTimeouts values.
type Timeouts struct {
	// Dial bounds one connection attempt. 0 means 5s.
	Dial time.Duration
	// Exchange is the write deadline for one probe frame. 0 means 10s.
	// How long an epoch waits for the answers is StreamConfig.Watermark.
	Exchange time.Duration
}

// DefaultTimeouts returns the timeout defaults: 5s dial, 10s per-frame
// write.
func DefaultTimeouts() Timeouts {
	return Timeouts{Dial: 5 * time.Second, Exchange: 10 * time.Second}
}

// withDefaults fills zero fields with the default values.
func (t Timeouts) withDefaults() Timeouts {
	d := DefaultTimeouts()
	if t.Dial == 0 {
		t.Dial = d.Dial
	}
	if t.Exchange == 0 {
		t.Exchange = d.Exchange
	}
	return t
}
