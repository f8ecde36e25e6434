package main

import (
	"testing"
	"time"
)

// A server that stalls once must cost every op that was due during the
// stall, not just the op that hit it: latency runs from the due time.
func TestOpenLoopChargesStallToLaterOps(t *testing.T) {
	const gap, stall = 10 * time.Millisecond, 200 * time.Millisecond
	ops := make([]op, 20)
	for i := range ops {
		ops[i] = op{Kind: opQuery, Seq: i, Due: time.Duration(i) * gap}
	}
	first := true
	samples := runOpenLoop(ops, 1, func(conn int, o *op) answer {
		if first {
			first = false
			time.Sleep(stall)
		}
		return answer{}
	})
	if len(samples) != len(ops) {
		t.Fatalf("got %d samples for %d ops", len(samples), len(ops))
	}
	for i := range samples {
		s := &samples[i]
		if s.Due != s.Op.Due {
			t.Fatalf("op %d: sample due %v, schedule %v", s.Op.Seq, s.Due, s.Op.Due)
		}
		// Op i was due i*gap after the start and cannot finish before the
		// stall ends, so it waited at least stall - i*gap.
		want := stall - time.Duration(s.Op.Seq)*gap
		if want > 0 && s.latency() < want-5*time.Millisecond {
			t.Errorf("op %d: latency %v, want at least %v (the stall it queued behind)", s.Op.Seq, s.latency(), want)
		}
		// The generator itself kept to the schedule: it released the op on
		// time even though the only connection was stuck.
		if late := s.Sent - s.Due; late > 20*time.Millisecond {
			t.Errorf("op %d: generator released it %v late; it must not wait for the server", s.Op.Seq, late)
		}
	}
}

func TestClosedLoopStopsAtDeadline(t *testing.T) {
	n := 0
	samples := runClosedLoop(50*time.Millisecond, 1, func() op { n++; return op{Seq: n} },
		func(int, *op) answer { time.Sleep(5 * time.Millisecond); return answer{} })
	if len(samples) < 3 || len(samples) > 12 {
		t.Fatalf("closed loop completed %d ops in 50 ms at 5 ms each", len(samples))
	}
}

func TestClockSkipsMissedTicks(t *testing.T) {
	n := 0
	c := startClock(10*time.Millisecond, func() {
		n++
		if n == 1 {
			time.Sleep(55 * time.Millisecond) // overruns five periods
		}
	})
	time.Sleep(120 * time.Millisecond)
	c.halt()
	if n < 3 || n > 8 {
		t.Fatalf("clock ran %d steps in 120 ms with one 55 ms overrun; missed ticks must be skipped, not queued", n)
	}
}
