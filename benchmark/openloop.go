package main

import (
	"runtime"
	"sync"
	"time"
)

// spinWindow is how long before an op is due the generator stops sleeping.
const spinWindow = 1500 * time.Microsecond

// sample is one completed op as the client saw it. Times are offsets from
// the phase start. Latency runs from Due, not from when a connection
// became free, so a stall is charged to every op that had to wait for it.
type sample struct {
	Op      *op
	Conn    int
	Due     time.Duration
	Sent    time.Duration // when the generator handed the op to the connections
	Start   time.Duration // when a connection began sending it
	Done    time.Duration
	Answer  answer
	Invalid string // why the correctness gate refused the answer ("" = fine)
}

func (s *sample) latency() time.Duration { return s.Done - s.Due }

// doFunc sends one op on connection conn and returns the decoded answer.
type doFunc func(conn int, o *op) answer

// runOpenLoop sends ops on their schedule regardless of how the server is
// doing: one generator goroutine releases each op at its due time into an
// unbounded queue that conns connections drain. It returns one sample per
// op, in completion order per connection.
func runOpenLoop(ops []op, conns int, do doFunc) []sample {
	type released struct {
		op   *op
		sent time.Duration
	}
	// Sized to the whole schedule so the generator never blocks on a slow
	// server: the queue, not the generator, absorbs a backlog.
	queue := make(chan released, len(ops))
	out := make([][]sample, conns)
	start := time.Now()

	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := range queue {
				begun := time.Since(start)
				a := do(c, r.op)
				out[c] = append(out[c], sample{Op: r.op, Conn: c, Due: r.op.Due, Sent: r.sent, Start: begun,
					Done: time.Since(start), Answer: a})
			}
		}(c)
	}
	for i := range ops {
		// Sleep wakes up to a millisecond late (the runtime's timers have
		// millisecond resolution), so sleep short and yield-spin the rest.
		if wait := ops[i].Due - time.Since(start) - spinWindow; wait > 0 {
			time.Sleep(wait)
		}
		for time.Since(start) < ops[i].Due {
			runtime.Gosched()
		}
		queue <- released{op: &ops[i], sent: time.Since(start)}
	}
	close(queue)
	wg.Wait()

	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// runClosedLoop drives conns clients that each send their next op as soon
// as the previous one completes, for the given duration: the saturation
// window. next must be safe for concurrent use.
func runClosedLoop(d time.Duration, conns int, next func() op, do doFunc) []sample {
	out := make([][]sample, conns)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for time.Since(start) < d {
				o := next()
				sent := time.Since(start)
				a := do(c, &o)
				out[c] = append(out[c], sample{Op: &o, Conn: c, Due: sent, Sent: sent, Start: sent,
					Done: time.Since(start), Answer: a})
			}
		}(c)
	}
	wg.Wait()
	var all []sample
	for _, s := range out {
		all = append(all, s...)
	}
	return all
}

// clock runs step every period on the benchmark's own schedule until stop
// is closed, and waits for a running step before returning. A step that
// overruns its period delays the next one; missed ticks are skipped, not
// queued. The product's own timer loops are never started.
type clock struct {
	stop chan struct{}
	done chan struct{}
}

func startClock(period time.Duration, step func()) *clock {
	c := &clock{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(c.done)
		start := time.Now()
		for tick := 1; ; {
			wait := time.Duration(tick)*period - time.Since(start)
			if wait < 0 {
				tick = int(time.Since(start)/period) + 1
				continue
			}
			select {
			case <-c.stop:
				return
			case <-time.After(wait):
			}
			step()
			tick++
		}
	}()
	return c
}

func (c *clock) halt() {
	close(c.stop)
	<-c.done
}
