//go:build go1.23

package sim

import "iter"

// Proc is a simulated sequential agent backed by a runtime coroutine
// (iter.Pull). A dispatch resumes the coroutine and a blocking call
// suspends it: control passes directly between the dispatching
// goroutine and the process on one thread, never through the Go
// scheduler, so a Sleep round trip costs a coroutine switch and no
// allocation. A panic in the body is re-raised by the dispatch, so it
// reaches the caller of Run (or Cluster.Run, with the LP named) like
// an event handler's panic. All Proc methods that block (Sleep, Park,
// WaitQ.Wait, ...) must be called from the process's own body.
type Proc struct {
	eng     *Engine
	name    string
	resume  func() (struct{}, bool) // engine -> process
	suspend func(struct{}) bool     // process -> engine; false once released
	stop    func()
	done    bool
	yields  uint64 // suspensions so far (see Yields)
}

// released is the sentinel panic that unwinds the body of a process
// whose engine was released while it was suspended. Only the wrapper
// in Go recovers it.
type released struct{}

// Go spawns a new process running body. The process starts at the current
// virtual time (as a scheduled event, so Go may be called before Run).
func (e *Engine) Go(name string, body func(p *Proc)) *Proc {
	p := &Proc{eng: e, name: name}
	p.resume, p.stop = iter.Pull(func(suspend func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != (released{}) {
				panic(r)
			}
		}()
		p.suspend = suspend
		body(p)
		p.done = true
	})
	e.procs = append(e.procs, p)
	e.AtHandler(e.now, e.now, p)
	return p
}

// Release unwinds every process of e that has not finished — parked,
// sleeping, or never dispatched — running its deferred calls and
// freeing its goroutine and stack. Call it once Run has returned on a
// run that may end early (Stop, a deadline, a deadlock, a panic); the
// engine must not be run again afterwards. It is a no-op for processes
// that finished.
func (e *Engine) Release() {
	for _, p := range e.procs {
		p.stop()
		p.done = true
	}
	e.procs = nil
}

// Release releases the unfinished processes of every LP (see
// Engine.Release). Call it after Run returns.
func (cl *Cluster) Release() {
	for _, e := range cl.all {
		e.Release()
	}
}

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.eng.now }

// Yields returns how many times the process has suspended. Between
// two reads that return the same count the process ran without a
// break: no event, handler or other process of its engine ran in
// between, so no state it did not change itself has changed. An
// in-place Sleep runs no other event and does not count.
func (p *Proc) Yields() uint64 { return p.yields }

// Run implements Handler: a scheduled wakeup dispatches the process.
// It lets Sleep, Unpark, and Go schedule dispatches as ordinary events
// with no allocation; it is not meant to be called directly.
func (p *Proc) Run(_, _ Time) { p.dispatch() }

// dispatch runs the process until it blocks or finishes. It must run
// in engine (event) context.
func (p *Proc) dispatch() {
	if p.done {
		panic("sim: dispatch of finished process " + p.name)
	}
	p.resume()
}

// yield returns control to the dispatching engine and blocks until the
// next dispatch. It must run in process context.
func (p *Proc) yield() {
	p.yields++
	if !p.suspend(struct{}{}) {
		panic(released{})
	}
}

// Sleep suspends the process for d nanoseconds of virtual time.
//
// On a standalone engine, when the wake would be the very next event
// Run executes — Run is not stopping, the wake is within its deadline,
// and every queued event, on the event heap (lanes included, through
// their proxies) and on the timer heap, is strictly later — the
// process keeps running: Sleep takes the wake's sequence number,
// advances the clock and counts the event in place, with no heap push
// and no coroutine round trip. The queues then hold the same events a
// scheduled wake would have left, and the digest folds events by key,
// not by heap slot, so the engine ends in the same state.
func (p *Proc) Sleep(d Time) {
	if d < 0 {
		panic("sim: negative sleep")
	}
	if d == 0 {
		return
	}
	e := p.eng
	t := e.now + d
	if e.cl == nil && !e.stopped && (e.deadline <= 0 || t <= e.deadline) &&
		e.events.after(t) && e.timers.after(t) {
		e.seq++
		e.now = t
		e.nEvents++
		return
	}
	e.AtHandler(t, t, p)
	p.yield()
}

// Park suspends the process indefinitely; something else must hold a
// reference and call Unpark (in engine/event or another process's context).
func (p *Proc) Park() { p.yield() }

// Unpark resumes a parked process at the current virtual time. It must be
// called from engine (event) context — e.g. inside an event callback — or
// via WaitQ, which handles this correctly.
func (p *Proc) Unpark() {
	p.eng.AtHandler(p.eng.now, p.eng.now, p)
}
