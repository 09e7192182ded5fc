package telemetry

import (
	"sync"
	"time"
)

// Meter measures throughput over an explicit steady-state window: Mark
// commits as they happen, call WindowStart when warm-up ends and
// WindowEnd when measurement stops.
//
// All window timekeeping is offsets from a base time.Time captured at
// construction. Because the base retains its monotonic clock reading and
// every offset comes from time.Since(base), window durations are pure
// monotonic arithmetic: a wall-clock step (NTP, leap smear, manual set)
// mid-run cannot produce a negative or inflated window.
type Meter struct {
	mu         sync.Mutex
	base       time.Time
	total      int64
	windowBase int64
	start      time.Duration // offset from base
	end        time.Duration // offset from base
	started    bool
	ended      bool
}

// NewMeter returns a meter with no window set.
func NewMeter() *Meter { return &Meter{base: time.Now()} }

// Mark counts n committed transactions.
func (m *Meter) Mark(n int) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.total += int64(n)
}

// Total returns the all-time committed count.
func (m *Meter) Total() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.total
}

// WindowStart begins the steady-state measurement window.
func (m *Meter) WindowStart() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.windowBase = m.total
	m.start = time.Since(m.base)
	m.started = true
	m.ended = false
}

// WindowEnd closes the measurement window.
func (m *Meter) WindowEnd() {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.end = time.Since(m.base)
	m.ended = true
}

// Throughput returns committed transactions per second within the window.
// It returns 0 if the window was never started or is empty.
func (m *Meter) Throughput() float64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.started {
		return 0
	}
	end := m.end
	if !m.ended {
		end = time.Since(m.base)
	}
	secs := (end - m.start).Seconds()
	if secs <= 0 {
		return 0
	}
	return float64(m.total-m.windowBase) / secs
}

// WindowCount returns the number of commits inside the window so far.
func (m *Meter) WindowCount() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.started {
		return 0
	}
	return m.total - m.windowBase
}
