package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// runConfig is one invocation's parameters.
type runConfig struct {
	Workload workloadSpec
	Seed     int64
	Seconds  float64
	Trace    bool
	// Warmup and Saturation default to the frozen phase lengths; -smoke
	// shortens them.
	Warmup, Saturation float64
	SetupRepeats       int
	OutDir             string // traces and WAL scratch directories live here

	// Epilogue and traced-pass sizes; -smoke shrinks them.
	EpilogueRounds, EpilogueRows            int
	TraceQueries, TraceBatches, TraceCycles int
}

// defaultConfig is the frozen definition of a run of w.
func defaultConfig(w workloadSpec) runConfig {
	return runConfig{Workload: w, Seed: 1, Seconds: runSeconds,
		Warmup: warmupSeconds, Saturation: saturationSeconds, SetupRepeats: setupRepeats,
		EpilogueRounds: epilogueRounds, EpilogueRows: epilogueRows(datasets[w.Dataset]),
		TraceQueries: traceQueries, TraceBatches: traceBatches, TraceCycles: traceCycles}
}

// smokeConfig is the -smoke run: the small dataset with a WAL behind one
// server, sub-second phases, every code path of a real run.
func smokeConfig() runConfig {
	w, _ := findWorkload("durable-ingest")
	w.Name = "smoke"
	cfg := defaultConfig(w)
	cfg.Seconds, cfg.Warmup, cfg.Saturation, cfg.SetupRepeats, cfg.Trace = 1, 0.3, 0.5, 1, true
	cfg.EpilogueRounds, cfg.EpilogueRows = 1, 60
	cfg.TraceQueries, cfg.TraceBatches, cfg.TraceCycles = 40, 30, 4
	return cfg
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is everything one run measured. Metrics holds every metric the
// run produced, end-to-end and per-layer, by name.
type result struct {
	Workload  string                 `json:"workload"`
	Seed      int64                  `json:"seed"`
	Seconds   float64                `json:"seconds"`
	Trace     bool                   `json:"trace"`
	Digest    string                 `json:"digest"`
	Env       map[string]string      `json:"env"`
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Problems  []string               `json:"problems,omitempty"`
	Notes     map[string]string      `json:"notes,omitempty"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func (r *result) set(name string, v float64) {
	def, ok := metricByName(name)
	if !ok {
		panic("benchmark: metric " + name + " is not in the catalogue")
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		r.problem("metric %s is not finite", name)
		v = 0
	}
	r.Metrics[name] = metricValue{Value: v, Unit: def.Unit}
}

func (r *result) problem(format string, args ...any) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

func (r *result) note(key, format string, args ...any) {
	r.Notes[key] = fmt.Sprintf(format, args...)
}

func envInfo() map[string]string {
	commit := "unknown"
	if b, err := os.ReadFile(".git/HEAD"); err == nil {
		head := strings.TrimSpace(string(b))
		if ref, ok := strings.CutPrefix(head, "ref: "); ok {
			if b, err := os.ReadFile(filepath.Join(".git", ref)); err == nil {
				head = strings.TrimSpace(string(b))
			}
		}
		commit = head
	}
	return map[string]string{
		"nproc":      strconv.Itoa(runtime.NumCPU()),
		"gomaxprocs": strconv.Itoa(runtime.GOMAXPROCS(0)),
		"go":         runtime.Version(),
		"commit":     commit,
		"engine":     "serial operators, columnar on, sampling ratio 0.1, confidence 0.95",
		"wal":        "group commit, 2 ms sync interval (default); 32 KiB segments, 64 KiB checkpoint trigger",
	}
}

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// storageBytesWritten reads the bytes this process caused to be written to
// the storage layer (/proc/self/io write_bytes); ok is false where the
// kernel does not expose it.
func storageBytesWritten() (n float64, ok bool) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, false
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, found := strings.CutPrefix(line, "write_bytes: "); found {
			f, err := strconv.ParseFloat(strings.TrimSpace(v), 64)
			return f, err == nil
		}
	}
	return 0, false
}

const (
	metricHeapLive  = "/gc/heap/live:bytes"
	metricGCCPU     = "/cpu/classes/gc/total:cpu-seconds"
	metricAllocObjs = "/gc/heap/allocs:objects"
)

func readRuntime(names ...string) []float64 {
	s := make([]metrics.Sample, len(names))
	for i, n := range names {
		s[i].Name = n
	}
	metrics.Read(s)
	out := make([]float64, len(names))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			out[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			out[i] = s[i].Value.Float64()
		}
	}
	return out
}

// sampler polls live heap and pending delta rows a few times a second
// while the run is under way. It forces no GC.
type sampler struct {
	mu      sync.Mutex
	at      []time.Time
	heap    []float64
	pending []float64
	clk     *clock
}

func startSampler(st *stack) *sampler {
	s := &sampler{}
	s.clk = startClock(200*time.Millisecond, func() {
		heap := readRuntime(metricHeapLive)[0]
		pending := float64(st.pendingRows())
		s.mu.Lock()
		s.at = append(s.at, time.Now())
		s.heap = append(s.heap, heap)
		s.pending = append(s.pending, pending)
		s.mu.Unlock()
	})
	return s
}

// between returns the samples taken in [from, to): seconds since from,
// heap bytes, pending rows.
func (s *sampler) between(from, to time.Time) (secs, heap, pending []float64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, t := range s.at {
		if !t.Before(from) && t.Before(to) {
			secs = append(secs, t.Sub(from).Seconds())
			heap = append(heap, s.heap[i])
			pending = append(pending, s.pending[i])
		}
	}
	return
}

// cycleLog collects maintenance samples with their start times.
type cycleLog struct {
	mu      sync.Mutex
	at      []time.Time
	samples []cycleSample
	err     error
}

func (c *cycleLog) add(at time.Time, s []cycleSample, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err != nil && c.err == nil {
		c.err = err
	}
	for _, x := range s {
		c.at = append(c.at, at)
		c.samples = append(c.samples, x)
	}
}

func (c *cycleLog) between(from, to time.Time) []cycleSample {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []cycleSample
	for i, t := range c.at {
		if !t.Before(from) && t.Before(to) {
			out = append(out, c.samples[i])
		}
	}
	return out
}

// settle returns memory of a torn-down stack to the OS between set-ups, so
// one set-up's garbage is not charged to the next or to the timed window.
func settle() {
	runtime.GC()
	debug.FreeOSMemory()
}

// setUp builds the stack cfg.SetupRepeats times, tearing each down but the
// last, and returns the last with the wall time of every build: setup_s is
// their median.
func setUp(cfg runConfig, ds *dataset) (st *stack, walDir string, setups []float64, err error) {
	for i := 0; i < cfg.SetupRepeats; i++ {
		if st != nil {
			st.close()
			removeAll(walDir)
			settle()
		}
		walDir = ""
		if cfg.Workload.Durable {
			if walDir, err = scratchDir(filepath.Join(cfg.OutDir, "wal"), cfg.Workload.Name); err != nil {
				return nil, "", nil, err
			}
		}
		t0 := time.Now()
		if st, err = buildStack(cfg.Workload, ds, walDir); err != nil {
			removeAll(walDir)
			return nil, "", nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	return st, walDir, setups, nil
}

// runWorkload performs one full run and returns its result. It returns an
// error only when the run could not be carried out at all; a run that
// measured wrong answers returns a result with Correct == false.
func runWorkload(cfg runConfig) (*result, error) {
	w := cfg.Workload
	res := &result{Workload: w.Name, Seed: cfg.Seed, Seconds: cfg.Seconds, Trace: cfg.Trace,
		Env: envInfo(), Notes: map[string]string{}, Metrics: map[string]metricValue{}}
	ds := genDataset(datasets[w.Dataset], cfg.Seed)

	if cfg.Trace {
		if err := tracedPass(cfg, ds, res); err != nil {
			return nil, fmt.Errorf("traced pass: %w", err)
		}
		settle()
	}

	st, walDir, setups, err := setUp(cfg, ds)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	defer func() {
		st.close()
		removeAll(walDir)
	}()
	res.set("setup_s", median(setups))
	res.note("setup_s", "median of %d set-ups: %v", len(setups), setups)
	settle()

	// Inputs.
	strm := newStream(w, ds, cfg.Seed)
	warmOps := strm.schedule(cfg.Warmup)
	winOps := strm.schedule(cfg.Seconds)
	dg := newDigester()
	dg.dataset(ds)
	dg.ops(warmOps)
	dg.ops(winOps)
	res.Digest = dg.sum()

	wc := newWireConn(st.addr)
	defer wc.close()
	nconn := runtime.NumCPU()
	g := newGate(nconn, w.Durable)

	// The benchmark's own clock drives maintenance through every phase. The
	// load itself comes from the child process (loadgen.go); the parent
	// snapshots the stack's counters as the child reports each boundary.
	cycles := &cycleLog{}
	var maint *clock
	var smp *sampler
	type snapshot struct {
		c       counters
		err     error
		rt      []float64
		io      float64
		ioOK    bool
		cpuSecs float64
	}
	snaps := map[string]snapshot{}
	take := func(name string) {
		var sn snapshot
		sn.cpuSecs = cpuSeconds()
		sn.rt = readRuntime(metricGCCPU, metricAllocObjs)
		sn.io, sn.ioOK = storageBytesWritten()
		sn.c, sn.err = st.readCounters(wc.c)
		snaps[name] = sn
	}
	load, err := runLoad(loadParams{Addr: st.addr, Workload: w.Name, Seed: cfg.Seed, Seconds: cfg.Seconds,
		Warmup: cfg.Warmup, Saturation: cfg.Saturation}, strm, warmOps, winOps,
		func() {
			maint = startClock(w.CyclePeriod, func() {
				at := time.Now()
				s, err := st.cycle()
				cycles.add(at, s, err)
			})
			smp = startSampler(st)
		}, take)
	if maint != nil {
		maint.halt()
		smp.clk.halt()
	}
	if err != nil {
		return nil, err
	}
	if cycles.err != nil {
		res.problem("maintenance failed: %v", cycles.err)
	}
	s0, s1 := snaps["window_start"], snaps["window_end"]
	if s0.err != nil || s1.err != nil {
		return nil, fmt.Errorf("read counters: %v / %v", s0.err, s1.err)
	}
	before, after := s0.c, s1.c
	cpuSecs := s1.cpuSecs - s0.cpuSecs
	winStart, winEnd := load.Marks["window_start"], load.Marks["window_end"]
	satElapsed := load.Marks["sat_end"].Sub(winEnd).Seconds()
	warm, win, sat := load.Warm, load.Win, load.Sat
	g.check(warm)
	winBad := g.check(win)
	satBad := g.check(sat)

	// ---- end-to-end metrics from the open-loop window
	var qLat, iLat, late, transport, ciWidth []float64
	epochs := map[uint64]bool{}
	var answers, stamped, pruned, sloMiss, rowsIngested int
	for i := range win {
		s := &win[i]
		late = append(late, float64(s.Sent-s.Due)/1e6)
		ms := float64(s.latency()) / 1e6
		if s.Invalid != "" {
			sloMiss++
			continue
		}
		if s.Op.Kind == opIngest {
			iLat = append(iLat, ms)
			rowsIngested += len(s.Op.Batch)
			if s.latency() > ingestSLO {
				sloMiss++
			}
			continue
		}
		qLat = append(qLat, ms)
		if s.latency() > querySLO {
			sloMiss++
		}
		answers++
		epochs[s.Answer.Epoch] = true
		transport = append(transport, float64(s.Done-s.Start)/1e3-s.Answer.ServerMS*1e3)
		if n := len(s.Answer.ShardEpoch); n > 0 {
			stamped++
			if n == 1 {
				pruned++
			}
		}
		// Range scalars only: a point query (one view row) is in the sample
		// or it is not, so its interval is mostly zero-width by design.
		if !s.Op.Grouped && s.Op.QKind != qVisitPoint && len(s.Answer.Estimates) == 1 {
			e := s.Answer.Estimates[0]
			if v := math.Abs(e.Value); v > 0 {
				ciWidth = append(ciWidth, (e.Hi-e.Lo)/2/v)
			}
		}
	}
	completed := len(qLat) + len(iLat)
	winCycles := cycles.between(winStart, winEnd)
	var cycMS []float64
	for _, c := range winCycles {
		cycMS = append(cycMS, c.MS)
	}
	res.set("query_p50_ms", median(qLat))
	res.set("ingest_p50_ms", median(iLat))
	res.set("cycle_p50_ms", median(cycMS))
	res.note("samples", "window: %d queries, %d ingest batches, %d cycles; saturation: %d ops", len(qLat), len(iLat), len(cycMS), len(sat))
	tail := func(name string, xs []float64, p float64) {
		v, err := percentile(xs, p)
		if err != nil {
			res.note(name, "not reported: %v", err)
		}
		res.set(name, v)
	}
	tail("query_p95_ms", qLat, 95)
	tail("query_p99_ms", qLat, 99)
	tail("ingest_p95_ms", iLat, 95)
	tail("ingest_p99_ms", iLat, 99)
	tail("cycle_p90_ms", cycMS, 90)
	res.set("cycle_max_ms", maxOf(cycMS))
	if v, label := highestPercentile(qLat); label != "" {
		res.note("query_tail", "highest supported percentile %s = %.3f ms over %d samples", label, v, len(qLat))
	}
	if v, label := highestPercentile(iLat); label != "" {
		res.note("ingest_tail", "highest supported percentile %s = %.3f ms over %d samples", label, v, len(iLat))
	}

	satOK := len(sat) - satBad
	res.set("sat_ops_s", float64(satOK)/satElapsed)
	offered := w.QueryRate + w.IngestRate
	if satOK > 0 {
		res.set("proc.offered_over_sat", offered/(float64(satOK)/satElapsed))
	}
	res.Attempted = len(win) + len(sat)
	res.Failed = winBad + satBad
	res.set("slo_miss_frac", frac(float64(sloMiss), float64(len(win))))
	res.set("fail_frac", frac(float64(res.Failed), float64(res.Attempted)))
	for _, phase := range [][]sample{warm, win, sat} {
		for i := range phase {
			if phase[i].Invalid != "" {
				res.problem("%s", phase[i].Invalid)
				break
			}
		}
	}
	res.set("cpu_ms_per_op", frac(cpuSecs*1e3, float64(completed)))
	secs, heap, pending := smp.between(winStart, winEnd)
	res.set("heap_live_peak_mb", maxOf(heap)/(1<<20))
	res.set("ci_rel_width_p50", median(ciWidth))

	// ---- timed per-layer metrics
	res.set("server.transport_us", median(transport))
	res.set("server.rejected", float64(after.Rejected-before.Rejected))
	res.set("server.timed_out", float64(after.TimedOut-before.TimedOut))
	res.set("svc.queries_per_epoch", frac(float64(answers), float64(len(epochs))))
	res.set("db.pending_rows_p50", median(pending))
	res.set("db.backlog_slope_rows_s", slope(secs, pending))
	res.set("relation.pool_hit_frac", 1-frac(float64(after.PoolNews-before.PoolNews), float64(after.PoolGets-before.PoolGets)))
	res.set("router.prune_frac", frac(float64(pruned), float64(stamped)))
	if v, err := percentile(late, 99); err == nil {
		res.set("proc.gen_late_p99_ms", v)
	} else {
		v, label := highestPercentile(late)
		res.set("proc.gen_late_p99_ms", v)
		res.note("proc.gen_late_p99_ms", "reported at %s: %v", label, err)
	}
	res.set("proc.gc_cpu_frac", frac(s1.rt[0]-s0.rt[0], cpuSecs))
	res.set("proc.allocs_per_op", frac(s1.rt[1]-s0.rt[1], float64(completed)))
	var hits, misses uint64
	var saved int64
	for _, c := range winCycles {
		hits += c.SharedHits
		misses += c.SharedMiss
		saved += c.RowsSaved
	}
	res.set("svc.shared_hit_frac", frac(float64(hits), float64(hits+misses)))
	res.set("svc.rows_saved_per_cycle", frac(float64(saved), float64(len(winCycles))))
	if st.sched != nil {
		def := float64(after.Sched.Deferred - before.Sched.Deferred)
		mnt := float64(after.Sched.Maintained - before.Sched.Maintained)
		res.set("svc.sched_deferred_frac", frac(def, def+mnt))
	}
	if st.wal != nil {
		a, b := after.WAL, before.WAL
		syncs := float64(a.Syncs - b.Syncs)
		res.set("wal.sync_mean_ms", frac(a.MeanSyncMillis*float64(a.Syncs)-b.MeanSyncMillis*float64(b.Syncs), syncs))
		res.set("wal.sync_p99_ms", a.P99SyncMillis)
		res.set("wal.syncs_per_kop", frac(syncs, float64(a.Appends-b.Appends)/1e3))
		res.set("wal.stalls", float64(a.Stalls-b.Stalls))
		res.set("wal.checkpoints", float64(a.Checkpoints-b.Checkpoints))
		res.set("wal.compactions", float64(a.Compactions-b.Compactions))
		if s0.ioOK && s1.ioOK {
			// A Log row is three 8-byte columns of user data.
			res.set("wal.bytes_per_user_byte", frac(s1.io-s0.io, float64(rowsIngested)*24))
		} else {
			res.note("wal.bytes_per_user_byte", "not reported: /proc/self/io is unavailable")
		}
	}

	// ---- epilogue: accuracy against exact truth, then crash recovery
	var acked [][]rowOp
	for _, phase := range [][]sample{warm, win, sat} {
		for i := range phase {
			if s := &phase[i]; s.Op.Kind == opIngest && s.Answer.Err == "" {
				acked = append(acked, s.Op.Batch)
			}
		}
	}
	if err := epilogue(cfg, st, ds, strm, wc, acked, res); err != nil {
		res.problem("epilogue: %v", err)
	}

	res.Correct = len(res.Problems) == 0
	fillMissing(res)
	return res, nil
}

func frac(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// epilogue measures accuracy in a few independent rounds: stage a fixed
// batch with no maintenance, serve a fixed query set over the wire, then
// maintain and take exact answers as truth. Several rounds, because the
// answers of one round share one sample and one batch and so err together.
// It is single-threaded and a pure function of the seed when no op of the
// run failed. On a durable workload it ends by crash-stopping the log and
// recovering it.
func epilogue(cfg runConfig, st *stack, ds *dataset, strm *stream, wc *wireConn, acked [][]rowOp, res *result) error {
	ts, err := st.newTruth(ds, acked)
	if err != nil {
		return fmt.Errorf("truth: %w", err)
	}
	// Bring every view to a maintenance boundary, so each round below sees
	// exactly its own staged rows as staleness.
	if err := ts.advance(nil); err != nil {
		return fmt.Errorf("truth: %w", err)
	}
	var ops []op
	var answers []answer
	var truths []map[string]float64
	for round := 0; round < cfg.EpilogueRounds; round++ {
		o := op{Kind: opIngest, Batch: strm.batch(cfg.EpilogueRows)}
		if a := wc.do(&o); a.Err != "" {
			return fmt.Errorf("stage: %s", a.Err)
		}
		acked = append(acked, o.Batch)
		first := len(ops)
		for i := 0; i < epilogueQueries; i++ {
			q := strm.query()
			a := wc.do(&q)
			if a.Err != "" {
				return fmt.Errorf("query %q: %s", q.SQL, a.Err)
			}
			ops, answers = append(ops, q), append(answers, a)
		}
		if err := ts.advance([][]rowOp{o.Batch}); err != nil {
			return fmt.Errorf("truth: %w", err)
		}
		for i := first; i < len(ops); i++ {
			t, err := ts.exact(&ops[i])
			if err != nil {
				return fmt.Errorf("exact %q: %w", ops[i].SQL, err)
			}
			truths = append(truths, t)
		}
	}
	acc := score(ops, answers, truths)
	res.set("rel_err_p50", acc.RelErrP50)
	res.set("svc.stale_rel_err_p50", acc.StaleRelErrP50)
	res.set("ci_coverage", acc.Coverage)
	if acc.Coverage < coverageFloor {
		res.problem("epilogue coverage %.3f is below %.2f: answers are off by more than their intervals", acc.Coverage, coverageFloor)
	}
	if st.wal != nil {
		ms, got, err := st.recoverCheck(ds, acked)
		if err != nil {
			return err
		}
		res.set("wal.recover_ms", ms)
		res.set("wal.recovered_frac", got)
		if got < 1 {
			res.problem("recovery lost acknowledged writes: recovered_frac = %v", got)
		}
	}
	return nil
}

// fillMissing gives every catalogue metric that does not apply to this
// workload (or that the run mode does not measure) an explicit 0, so every
// run prints the same names.
func fillMissing(res *result) {
	for _, m := range allMetrics() {
		if _, ok := res.Metrics[m.Name]; !ok {
			res.Metrics[m.Name] = metricValue{Value: 0, Unit: m.Unit}
		}
	}
}
