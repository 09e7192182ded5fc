package main

import (
	"sync"
	"sync/atomic"
	"time"

	"parblockchain/internal/types"
)

// submitter is the part of oxii.Client the load generator calls.
type submitter interface {
	Prepare(app types.AppID, op types.Operation) *types.Transaction
	Submit(tx *types.Transaction) (<-chan types.TxResult, error)
}

// Phases a transaction can belong to.
const (
	phaseWarmup = iota
	phaseRate
	phasePeak
)

// Outcomes of a transaction. Everything but statusOK counts as failed;
// statusPending left at the end of a run is a timeout.
const (
	statusPending = iota
	statusOK
	statusSendErr
	statusAborted
	statusClosed
)

// drainTimeout is how long the generator waits, after it stops
// submitting, for transactions still in flight. One still missing then
// has timed out.
const drainTimeout = 30 * time.Second

// txRec is one transaction's timeline, in nanoseconds since the driver's
// epoch. due is when the schedule wanted it sent (open loop) or equal to
// sent (closed loop); sent and submitted bracket Client.Submit; recv is
// when its result arrived.
type txRec struct {
	id                         types.TxID
	due, sent, submitted, recv int64
	phase                      uint8
	status                     uint8
	hot                        bool
}

const recChunk = 4096

// dueNow marks a transaction that is due the moment it is sent.
const dueNow = -1

// driver submits the generated stream through a client from one
// goroutine and timestamps every result on arrival. Each in-flight
// transaction has a waiter goroutine parked on its result channel; the
// waiters only stamp the arrival and wake the generator.
type driver struct {
	client submitter
	gen    *generator
	epoch  time.Time

	chunks [][]txRec // fixed-size chunks, so record addresses stay valid
	issued int64

	completed atomic.Int64
	wake      chan struct{} // poked on every completion; capacity 1
	abort     chan struct{} // closed to release waiters of lost transactions
	waiters   sync.WaitGroup

	// stall, when set, runs before the i-th submission of a phase; tests
	// use it to model a sender that stops for a while.
	stall func(i int)
}

func newDriver(client submitter, gen *generator, epoch time.Time) *driver {
	return &driver{
		client: client,
		gen:    gen,
		epoch:  epoch,
		wake:   make(chan struct{}, 1),
		abort:  make(chan struct{}),
	}
}

func (d *driver) now() int64 { return int64(time.Since(d.epoch)) }

func (d *driver) newRec() *txRec {
	if len(d.chunks) == 0 || len(d.chunks[len(d.chunks)-1]) == recChunk {
		d.chunks = append(d.chunks, make([]txRec, 0, recChunk))
	}
	last := &d.chunks[len(d.chunks)-1]
	*last = append(*last, txRec{})
	return &(*last)[len(*last)-1]
}

// submit sends the next generated transaction. due is the instant the
// schedule wanted it sent, or dueNow when there is no schedule.
func (d *driver) submit(phase uint8, due int64) {
	app, op, hot := d.gen.nextOp()
	tx := d.client.Prepare(app, op)
	r := d.newRec()
	r.phase, r.hot, r.due = phase, hot, due
	d.issued++
	r.sent = d.now()
	if due == dueNow {
		r.due = r.sent
	}
	ch, err := d.client.Submit(tx)
	r.submitted = d.now()
	r.id = tx.ID
	if err != nil {
		r.status = statusSendErr
		d.completed.Add(1)
		return
	}
	d.waiters.Add(1)
	go func() {
		defer d.waiters.Done()
		select {
		case res, ok := <-ch:
			r.recv = d.now()
			switch {
			case !ok:
				r.status = statusClosed
			case res.Aborted:
				r.status = statusAborted
			default:
				r.status = statusOK
			}
		case <-d.abort:
			return
		}
		d.completed.Add(1)
		select {
		case d.wake <- struct{}{}:
		default:
		}
	}()
}

func (d *driver) inFlight() int64 { return d.issued - d.completed.Load() }

// openLoop submits rate transactions per second for dur on a fixed
// schedule, whatever the system's progress, and then waits for the
// results. Each transaction is due at start + i/rate and is timed from
// then, so a stall of the sender or the system is charged to every
// transaction it delays. It reports whether every result arrived.
func (d *driver) openLoop(phase uint8, rate int, dur time.Duration) bool {
	start := d.now()
	interval := float64(time.Second) / float64(rate)
	n := int(float64(rate) * dur.Seconds())
	for i := 0; i < n; i++ {
		due := start + int64(float64(i)*interval)
		if wait := due - d.now(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		if d.stall != nil {
			d.stall(i)
		}
		d.submit(phase, due)
	}
	return d.drain()
}

// closedLoop keeps window transactions in flight for dur: a completion
// is the only thing that lets the next one out. It returns the window's
// bounds; transactions in flight at the end are drained afterwards and
// do not count towards the window's throughput.
func (d *driver) closedLoop(phase uint8, window int, dur time.Duration) (from, to int64, ok bool) {
	tick := time.NewTicker(time.Millisecond) // bounds the overrun past the window's end
	defer tick.Stop()
	from = d.now()
	to = from + int64(dur)
	for d.now() < to {
		for d.inFlight() < int64(window) {
			d.submit(phase, dueNow)
		}
		select {
		case <-d.wake:
		case <-tick.C:
		}
	}
	to = d.now()
	return from, to, d.drain()
}

// drain waits until nothing is in flight or the timeout passes, and
// reports whether everything came back.
func (d *driver) drain() bool {
	tick := time.NewTicker(10 * time.Millisecond)
	defer tick.Stop()
	deadline := time.Now().Add(drainTimeout)
	for d.inFlight() > 0 {
		if time.Now().After(deadline) {
			return false
		}
		select {
		case <-d.wake:
		case <-tick.C:
		}
	}
	return true
}

// finish releases the waiters of lost transactions and returns every
// record. The driver must not be used afterwards.
func (d *driver) finish() []*txRec {
	close(d.abort)
	d.waiters.Wait()
	out := make([]*txRec, 0, d.issued)
	for c := range d.chunks {
		for i := range d.chunks[c] {
			out = append(out, &d.chunks[c][i])
		}
	}
	return out
}
