package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"math/rand"
	"time"
)

// The generator owns the benchmark's inputs: rows and op streams are a
// pure function of (workload, seed). It calls none of the repo's own
// generators, so editing those cannot change the traffic.

// dataset is the base data in compact form; the adapter turns it into
// table rows at load time.
type dataset struct {
	Spec     datasetSpec
	Owner    []int32   // per video
	Duration []float64 // per video
	LogVideo []int32   // per base Log row; sessionId is the index
	LogBytes []float64
}

// bytesValue draws one Log.bytes value: 98 % uniform in [100, 1000), 2 %
// from a Pareto tail (shape 1.5) starting at 1000.
func bytesValue(rng *rand.Rand) float64 {
	if rng.Float64() < 0.02 {
		return math.Min(1000*math.Pow(1-rng.Float64(), -1/1.5), 5e6)
	}
	return 100 + 900*rng.Float64()
}

func genDataset(spec datasetSpec, seed int64) *dataset {
	rng := rand.New(rand.NewSource(seed*7919 + 1))
	ds := &dataset{
		Spec:     spec,
		Owner:    make([]int32, spec.Videos),
		Duration: make([]float64, spec.Videos),
		LogVideo: make([]int32, spec.Logs),
		LogBytes: make([]float64, spec.Logs),
	}
	for i := range ds.Owner {
		ds.Owner[i] = int32(rng.Intn(50))
		ds.Duration[i] = 3 * rng.Float64()
	}
	for i := range ds.LogVideo {
		ds.LogVideo[i] = int32(rng.Intn(spec.Videos))
		ds.LogBytes[i] = bytesValue(rng)
	}
	return ds
}

type opKind uint8

const (
	opQuery opKind = iota
	opIngest
)

// rowOp is one staged mutation of Log.
type rowOp struct {
	Kind    byte // 'i' insert, 'u' update, 'd' delete
	Session int64
	Video   int64
	Bytes   float64
}

// op is one request of the stream. Due is the offset from the phase start
// at which an open-loop run must send it.
type op struct {
	Kind    opKind
	Seq     int // index within an open-loop phase, or draw number from next
	Due     time.Duration
	SQL     string
	Grouped bool
	View    string
	QKind   queryKind
	Batch   []rowOp
}

// stream produces a workload's op sequence. One stream serves every phase
// of a run in order (warm-up, window, saturation, epilogue), so victims of
// updates and deletes are drawn without replacement across all of them:
// every staged op is valid whatever order concurrent connections apply
// them in, and the final table contents are order-independent.
type stream struct {
	w   workloadSpec
	ds  *dataset
	rng *rand.Rand
	z   *rand.Zipf

	nextSession int64
	victimStep  int64 // multiplicative walk over base sessionIds
	victimPos   int64
	victimsUsed int64
	mixTotal    int
	draws       int // ops handed out by next
}

func newStream(w workloadSpec, ds *dataset, seed int64) *stream {
	rng := rand.New(rand.NewSource(seed*104729 + 17))
	s := &stream{w: w, ds: ds, rng: rng, nextSession: int64(ds.Spec.Logs)}
	if w.ZipfS > 1 {
		s.z = rand.NewZipf(rng, w.ZipfS, 1, uint64(ds.Spec.Videos-1))
	}
	// A step coprime to the table size visits every base row exactly once.
	n := int64(ds.Spec.Logs)
	step := n/2 + 1 + rng.Int63n(n/4)
	for gcd(step, n) != 1 {
		step++
	}
	s.victimStep = step
	s.victimPos = rng.Int63n(n)
	for _, m := range w.Mix {
		s.mixTotal += m.Weight
	}
	return s
}

func gcd(a, b int64) int64 {
	for b != 0 {
		a, b = b, a%b
	}
	return a
}

// victim returns a base sessionId never returned before, or -1 once every
// base row has been used.
func (s *stream) victim() int64 {
	if s.victimsUsed >= int64(s.ds.Spec.Logs) {
		return -1
	}
	s.victimsUsed++
	s.victimPos = (s.victimPos + s.victimStep) % int64(s.ds.Spec.Logs)
	return s.victimPos
}

func (s *stream) ingestVideo() int64 {
	if s.z != nil {
		return int64(s.z.Uint64())
	}
	return int64(s.rng.Intn(s.ds.Spec.Videos))
}

// batch draws one ingest batch: 80 % inserts of new sessions, 10 % updates
// and 10 % deletes of base rows. Through a router deletes of Log are not
// routable (sessionId does not determine the shard), so sharded workloads
// turn them into updates, and updates keep their videoId so the row stays
// on its shard.
func (s *stream) batch(rows int) []rowOp {
	out := make([]rowOp, 0, rows)
	for i := 0; i < rows; i++ {
		r := s.rng.Float64()
		switch {
		case r < 0.8:
			out = append(out, s.insertRow())
		case r < 0.9 || s.w.Shards > 0:
			v := s.victim()
			if v < 0 {
				out = append(out, s.insertRow())
				continue
			}
			video := int64(s.ds.LogVideo[v])
			if s.w.Shards == 0 && s.rng.Intn(2) == 0 {
				video = s.ingestVideo()
			}
			out = append(out, rowOp{Kind: 'u', Session: v, Video: video, Bytes: bytesValue(s.rng)})
		default:
			v := s.victim()
			if v < 0 {
				out = append(out, s.insertRow())
				continue
			}
			out = append(out, rowOp{Kind: 'd', Session: v, Video: int64(s.ds.LogVideo[v]), Bytes: s.ds.LogBytes[v]})
		}
	}
	return out
}

func (s *stream) insertRow() rowOp {
	id := s.nextSession
	s.nextSession++
	return rowOp{Kind: 'i', Session: id, Video: s.ingestVideo(), Bytes: bytesValue(s.rng)}
}

// rangePred draws a half-open id range covering 10-100 % of [0, n).
func (s *stream) rangePred(col string, n int) string {
	width := n/10 + s.rng.Intn(n-n/10+1)
	lo := 0
	if width < n {
		lo = s.rng.Intn(n - width + 1)
	}
	return fmt.Sprintf("%s >= %d AND %s < %d", col, lo, col, lo+width)
}

func (s *stream) query() op {
	pick := s.rng.Intn(s.mixTotal)
	kind := s.w.Mix[0].Kind
	for _, m := range s.w.Mix {
		if pick < m.Weight {
			kind = m.Kind
			break
		}
		pick -= m.Weight
	}
	o := op{Kind: opQuery, QKind: kind}
	videos := s.ds.Spec.Videos
	switch kind {
	case qVisitScalar:
		o.View = "visitView"
		agg := [...]string{"SUM(visitCount)", "COUNT(1)", "AVG(totalDuration)", "SUM(totalDuration)"}[s.rng.Intn(4)]
		o.SQL = fmt.Sprintf("SELECT %s FROM visitView WHERE %s", agg, s.rangePred("videoId", videos))
	case qVisitGroups:
		o.View, o.Grouped = "visitView", true
		agg := [...]string{"SUM(visitCount)", "SUM(totalDuration)"}[s.rng.Intn(2)]
		o.SQL = fmt.Sprintf("SELECT ownerId, %s FROM visitView WHERE %s GROUP BY ownerId", agg, s.rangePred("videoId", videos))
	case qTrafficScalar:
		o.View = "trafficView"
		agg := [...]string{"SUM(totalBytes)", "SUM(hits)", "AVG(totalBytes)"}[s.rng.Intn(3)]
		o.SQL = fmt.Sprintf("SELECT %s FROM trafficView WHERE %s", agg, s.rangePred("videoId", videos))
	case qOwnerScalar:
		o.View = "ownerView"
		agg := [...]string{"SUM(visitCount)", "SUM(totalDuration)"}[s.rng.Intn(2)]
		o.SQL = fmt.Sprintf("SELECT %s FROM ownerView WHERE %s", agg, s.rangePred("ownerId", 50))
	case qVisitPoint:
		o.View = "visitView"
		agg := [...]string{"SUM(visitCount)", "SUM(totalDuration)"}[s.rng.Intn(2)]
		o.SQL = fmt.Sprintf("SELECT %s FROM visitView WHERE videoId = %d", agg, s.rng.Intn(videos))
	}
	return o
}

// next draws the next op in mix proportion (used by the closed-loop
// saturation window, which has no schedule).
func (s *stream) next() op {
	total := s.w.QueryRate + s.w.IngestRate
	var o op
	if s.rng.Float64()*total < s.w.QueryRate {
		o = s.query()
	} else {
		o = op{Kind: opIngest, Batch: s.batch(s.w.BatchRows)}
	}
	o.Seq = s.draws
	s.draws++
	return o
}

// schedule draws the ops of one open-loop phase: queries and ingest
// batches arrive as two independent Poisson processes, merged by due time.
func (s *stream) schedule(seconds float64) []op {
	horizon := time.Duration(seconds * float64(time.Second))
	arrivals := func(rate float64) []time.Duration {
		var out []time.Duration
		if rate <= 0 {
			return out
		}
		t := 0.0
		for {
			t += s.rng.ExpFloat64() / rate
			d := time.Duration(t * float64(time.Second))
			if d >= horizon {
				return out
			}
			out = append(out, d)
		}
	}
	qs, is := arrivals(s.w.QueryRate), arrivals(s.w.IngestRate)
	ops := make([]op, 0, len(qs)+len(is))
	for len(qs) > 0 || len(is) > 0 {
		if len(is) == 0 || (len(qs) > 0 && qs[0] <= is[0]) {
			o := s.query()
			o.Due = qs[0]
			qs = qs[1:]
			ops = append(ops, o)
			continue
		}
		o := op{Kind: opIngest, Due: is[0], Batch: s.batch(s.w.BatchRows)}
		is = is[1:]
		ops = append(ops, o)
	}
	for i := range ops {
		ops[i].Seq = i
	}
	return ops
}

// digester folds generated inputs into one SHA-256, printed with every
// result so two runs can be shown to have measured identical traffic.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digester) dataset(ds *dataset) {
	for i := range ds.Owner {
		d.u64(uint64(ds.Owner[i]))
		d.u64(math.Float64bits(ds.Duration[i]))
	}
	for i := range ds.LogVideo {
		d.u64(uint64(ds.LogVideo[i]))
		d.u64(math.Float64bits(ds.LogBytes[i]))
	}
}

func (d *digester) ops(ops []op) {
	for _, o := range ops {
		d.u64(uint64(o.Kind))
		d.u64(uint64(o.Due))
		d.h.Write([]byte(o.SQL))
		for _, r := range o.Batch {
			d.u64(uint64(r.Kind))
			d.u64(uint64(r.Session))
			d.u64(uint64(r.Video))
			d.u64(math.Float64bits(r.Bytes))
		}
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil))[:16] }
