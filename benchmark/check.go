package main

import (
	"fmt"
	"math"
)

// gate is the correctness check applied to every answer of a timed run:
// the answer is 2xx and well-formed, every estimate is finite with
// lo <= value <= hi, as_of_epoch never goes backwards on a connection
// (per shard through a router), and the durable frontier a shard
// acknowledges never goes backwards on a connection.
type gate struct {
	durable bool
	epochs  []map[int]uint64 // per connection: shard -> last epoch
	seqs    []map[int]uint64 // per connection: shard -> last durable_seq
}

func newGate(conns int, durable bool) *gate {
	g := &gate{durable: durable}
	for i := 0; i < conns; i++ {
		g.epochs = append(g.epochs, map[int]uint64{})
		g.seqs = append(g.seqs, map[int]uint64{})
	}
	return g
}

// check validates the samples of one connection-ordered phase in place,
// filling Invalid, and returns how many it refused.
func (g *gate) check(samples []sample) int {
	bad := 0
	for i := range samples {
		s := &samples[i]
		s.Invalid = g.one(s)
		if s.Invalid != "" {
			bad++
		}
	}
	return bad
}

func (g *gate) one(s *sample) string {
	a := &s.Answer
	if a.Err != "" {
		return a.Err
	}
	if s.Op.Kind == opIngest {
		if a.Staged != len(s.Op.Batch) {
			return fmt.Sprintf("staged %d of %d ops", a.Staged, len(s.Op.Batch))
		}
		if g.durable && !a.Durable {
			return "ack is not durable"
		}
		for shard, seq := range a.DurableSeq {
			if seq < g.seqs[s.Conn][shard] {
				return fmt.Sprintf("durable_seq went back on shard %d: %d after %d", shard, seq, g.seqs[s.Conn][shard])
			}
			g.seqs[s.Conn][shard] = seq
		}
		return ""
	}
	if len(a.Estimates) == 0 && !s.Op.Grouped {
		return "answer carries no estimate"
	}
	for _, e := range a.Estimates {
		if !finite(e.Value) || !finite(e.Lo) || !finite(e.Hi) {
			return fmt.Sprintf("non-finite estimate %v [%v, %v]", e.Value, e.Lo, e.Hi)
		}
		if e.Lo > e.Value || e.Value > e.Hi {
			return fmt.Sprintf("estimate %v outside its interval [%v, %v]", e.Value, e.Lo, e.Hi)
		}
	}
	stamps := a.ShardEpoch
	if stamps == nil {
		stamps = map[int]uint64{0: a.Epoch}
	}
	for shard, ep := range stamps {
		if ep < g.epochs[s.Conn][shard] {
			return fmt.Sprintf("as_of_epoch went back on shard %d: %d after %d", shard, ep, g.epochs[s.Conn][shard])
		}
		g.epochs[s.Conn][shard] = ep
	}
	return ""
}

func finite(v float64) bool { return !math.IsNaN(v) && !math.IsInf(v, 0) }

// accuracy is the epilogue's verdict on one query set.
type accuracy struct {
	RelErrP50      float64 // median |estimate - truth| / |truth|
	StaleRelErrP50 float64 // same for the uncorrected stale answer (scalars)
	Coverage       float64 // share of answers whose interval brackets truth
	Answers        int
}

// score compares served answers with exact truth. A grouped answer counts
// once: its error is the median over its groups and its coverage the
// covered share of them.
func score(ops []op, answers []answer, truths []map[string]float64) accuracy {
	var errs, staleErrs []float64
	covered := 0.0
	for i := range ops {
		a, truth := answers[i], truths[i]
		if len(a.Estimates) == 0 {
			continue
		}
		var gErrs []float64
		gCov := 0
		for _, e := range a.Estimates {
			t, ok := truth[e.Key]
			if !ok {
				t = 0 // a group that maintenance removed entirely
			}
			gErrs = append(gErrs, relErr(e.Value, t))
			if t >= e.Lo-slack(t) && t <= e.Hi+slack(t) {
				gCov++
			}
		}
		errs = append(errs, median(gErrs))
		covered += float64(gCov) / float64(len(a.Estimates))
		if a.HasStale {
			staleErrs = append(staleErrs, relErr(a.Stale, truth[""]))
		}
	}
	acc := accuracy{Answers: len(errs), RelErrP50: median(errs), StaleRelErrP50: median(staleErrs)}
	if len(errs) > 0 {
		acc.Coverage = covered / float64(len(errs))
	}
	return acc
}

// slack absorbs float round-off when an exact estimate has a zero-width
// interval around a truth computed in a different summation order.
func slack(t float64) float64 { return 1e-9 * math.Max(1, math.Abs(t)) }

func relErr(est, truth float64) float64 {
	d := math.Abs(truth)
	if d < 1e-12 {
		d = 1e-12
	}
	return math.Abs(est-truth) / d
}
