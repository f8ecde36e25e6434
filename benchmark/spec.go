package main

import "time"

// This file is the benchmark's definition: datasets, workloads, frozen
// rates and the metric catalogue. Nothing here is calibrated at run time;
// see README.md ("Frozen constants") for how each value was chosen.

// Phase lengths. runSeconds is BENCHMARK.json's run_seconds: the length of
// the open-loop window the driver asks for with --seconds.
const (
	runSeconds        = 15
	warmupSeconds     = 2.0
	saturationSeconds = 4.0
	setupRepeats      = 3 // setup_s is the median of this many set-ups
)

// Latency limits for slo_miss_frac.
const (
	querySLO  = 100 * time.Millisecond
	ingestSLO = 100 * time.Millisecond
)

// Epilogue and traced-pass sizes.
const (
	epilogueRounds  = 3
	epilogueQueries = 60 // served per round
	traceQueries    = 200
	traceBatches    = 600
	traceCycles     = 8
	traceStreamSecs = 12.0 // stream-time prefix the traced pass replays
	coverageFloor   = 0.75 // epilogue gate: ci_coverage below this fails the run
	minTailSamples  = 10   // a percentile needs this many samples beyond it
	samplingRatio   = 0.1  // svcd default
	confidenceLevel = 0.95 // svcd default
	outlierLimit    = 150
)

// WAL sizing for durable-ingest. Group commit keeps its default 2 ms
// window (the flush policy); segments and the checkpoint trigger are
// shrunk so that rotation, checkpointing and compaction each run several
// times inside one window (the defaults, 16 MiB / 64 MiB, would never
// trip at this volume: a window logs about 0.4 MB).
const (
	walSegmentBytes    = 32 << 10
	walCheckpointBytes = 64 << 10
)

type datasetSpec struct {
	Name   string
	Videos int
	Logs   int
}

var datasets = map[string]datasetSpec{
	"mid":   {Name: "mid", Videos: 20_000, Logs: 600_000},
	"small": {Name: "small", Videos: 2_000, Logs: 30_000},
}

// View definitions, as svcql text (the form a user hands svcd).
const (
	visitViewSQL = `CREATE VIEW visitView AS
SELECT videoId, ownerId, COUNT(1) AS visitCount, SUM(duration) AS totalDuration
FROM Log JOIN Video ON Log.videoId = Video.videoId
GROUP BY videoId, ownerId`
	ownerViewSQL = `CREATE VIEW ownerView AS
SELECT ownerId, COUNT(1) AS visitCount, SUM(duration) AS totalDuration
FROM Log JOIN Video ON Log.videoId = Video.videoId
GROUP BY ownerId`
	trafficViewSQL = `CREATE VIEW trafficView AS
SELECT videoId, COUNT(1) AS hits, SUM(bytes) AS totalBytes
FROM Log
GROUP BY videoId`
)

var viewSQL = map[string]string{
	"visitView":   visitViewSQL,
	"ownerView":   ownerViewSQL,
	"trafficView": trafficViewSQL,
}

// queryKind names one query template of the generator.
type queryKind int

const (
	qVisitScalar   queryKind = iota // SUM/COUNT/AVG over a videoId range of visitView
	qVisitGroups                    // GROUP BY ownerId over visitView
	qTrafficScalar                  // SUM/COUNT/AVG over a videoId range of trafficView
	qOwnerScalar                    // SUM/COUNT over an ownerId range of ownerView
	qVisitPoint                     // WHERE videoId = K (pruned to one shard by the router)
)

type mixEntry struct {
	Kind   queryKind
	Weight int
}

// maintenanceKind selects which maintenance call the benchmark's clock drives.
type maintenanceKind int

const (
	maintainGroup    maintenanceKind = iota // svc.MaintainViews over the workload's views
	maintainSched                           // Scheduler.TickNow
	maintainPerShard                        // StaleView.MaintainNow on each shard
)

type workloadSpec struct {
	Name    string
	Why     string
	Dataset string
	Views   []string
	// Outlier attaches WithOutlierIndex("Log","bytes",outlierLimit) to trafficView.
	Outlier bool
	Durable bool
	Shards  int // 0 = single server

	QueryRate  float64 // queries per second, Poisson arrivals
	IngestRate float64 // ingest batches per second, Poisson arrivals
	BatchRows  int
	ZipfS      float64 // skew of ingested videoIds; 0 = uniform
	Mix        []mixEntry

	Maintain    maintenanceKind
	CyclePeriod time.Duration
}

// Rates were calibrated once on the reference box (2 cores) so that the
// offered rate is 0.3-0.6 of sat_ops_s, then frozen. README.md records the
// calibration runs.
var workloads = []workloadSpec{
	{
		Name:    "dash-read",
		Why:     "many queries share each epoch, so the per-epoch sample cache hits and server/svcql/estimator do the work while clean/view do little",
		Dataset: "mid", Views: []string{"visitView", "trafficView"}, Outlier: true,
		QueryRate: 40, IngestRate: 5, BatchRows: 40,
		Mix:      []mixEntry{{qVisitScalar, 60}, {qVisitGroups, 25}, {qTrafficScalar, 15}},
		Maintain: maintainGroup, CyclePeriod: 2 * time.Second,
	},
	{
		Name:    "churn-fresh",
		Why:     "almost every query lands on a fresh epoch and pays db.Pin + clean, and scheduler cycles fold ~2000 skewed delta rows through view/algebra with shared subplans",
		Dataset: "mid", Views: []string{"visitView", "ownerView", "trafficView"},
		QueryRate: 40, IngestRate: 140, BatchRows: 15, ZipfS: 1.1,
		Mix:      []mixEntry{{qVisitScalar, 8}, {qOwnerScalar, 1}, {qTrafficScalar, 1}},
		Maintain: maintainSched, CyclePeriod: time.Second,
	},
	{
		Name:    "durable-ingest",
		Why:     "the engine does almost nothing at this size, so the WAL (append, fsync batching, checkpoint stalls) sets ingest latency; a CPU win in clean/view must not move it",
		Dataset: "small", Views: []string{"visitView", "trafficView"}, Durable: true,
		QueryRate: 20, IngestRate: 70, BatchRows: 5,
		// No GROUP BY here: at 2000 videos an owner has ~40 view rows and so
		// ~4 sampled ones, and per-group intervals mean little.
		Mix:      []mixEntry{{qVisitScalar, 80}, {qTrafficScalar, 20}},
		Maintain: maintainGroup, CyclePeriod: 250 * time.Millisecond,
	},
	{
		Name:    "fleet-scatter",
		Why:     "router, shard fan-out and partial merge do the work while each shard's engine does half of dash-read's: the estimator used through partials + merge",
		Dataset: "mid", Views: []string{"visitView"}, Shards: 2,
		QueryRate: 60, IngestRate: 10, BatchRows: 40,
		Mix:      []mixEntry{{qVisitPoint, 30}, {qVisitScalar, 55}, {qVisitGroups, 15}},
		Maintain: maintainPerShard, CyclePeriod: 2 * time.Second,
	},
}

// epilogueRows is the batch staged per epilogue round: 2000 rows on mid.
// Much smaller deltas put under one changed row into most groups' samples,
// and intervals built from a single difference say nothing.
func epilogueRows(ds datasetSpec) int {
	if n := ds.Logs / 300; n > 500 {
		return n
	}
	return 500
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// metricDef describes one named metric. Bound is the share of the
// parent's median by which an end-to-end metric may worsen.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" | "higher"
	Bound  float64
	// Moves names the end-to-end metric a per-layer metric should move.
	Moves string
}

// endToEnd lists the metrics a user of the serving stack sees. Every one
// applies to all four workloads and is never zero on them.
var endToEnd = []metricDef{
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "query_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "ingest_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "cycle_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "sat_ops_s", Unit: "1/s", Better: "higher", Bound: 0.25},
	{Name: "cpu_ms_per_op", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "heap_live_peak_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "ci_rel_width_p50", Unit: "ratio", Better: "lower", Bound: 0.25},
	{Name: "ci_coverage", Unit: "fraction", Better: "higher", Bound: 0.15},
}

// perLayer lists the metrics of single layers. They carry no bound; Moves
// names the end-to-end metric each should move. "timed" metrics are read
// during the timed run from the wire, /stats or public counters; "traced"
// ones come from the single-threaded traced pass (-trace 1). A metric that
// does not apply to a workload is printed as 0.
var perLayer = append([]metricDef{
	// timed
	{Name: "query_p95_ms", Unit: "ms", Better: "lower", Moves: "query_p50_ms"},
	{Name: "query_p99_ms", Unit: "ms", Better: "lower", Moves: "query_p50_ms"},
	{Name: "ingest_p95_ms", Unit: "ms", Better: "lower", Moves: "ingest_p50_ms"},
	{Name: "ingest_p99_ms", Unit: "ms", Better: "lower", Moves: "ingest_p50_ms"},
	{Name: "cycle_p90_ms", Unit: "ms", Better: "lower", Moves: "cycle_p50_ms"},
	{Name: "cycle_max_ms", Unit: "ms", Better: "lower", Moves: "cycle_p50_ms"},
	{Name: "slo_miss_frac", Unit: "fraction", Better: "lower", Moves: "query_p50_ms"},
	{Name: "fail_frac", Unit: "fraction", Better: "lower", Moves: "sat_ops_s"},
	{Name: "rel_err_p50", Unit: "ratio", Better: "lower", Moves: "ci_coverage"},
	{Name: "svc.stale_rel_err_p50", Unit: "ratio", Better: "higher", Moves: "ci_coverage"},
	{Name: "server.transport_us", Unit: "us", Better: "lower", Moves: "query_p50_ms"},
	{Name: "server.rejected", Unit: "count", Better: "lower", Moves: "sat_ops_s"},
	{Name: "server.timed_out", Unit: "count", Better: "lower", Moves: "sat_ops_s"},
	{Name: "svc.queries_per_epoch", Unit: "count", Better: "higher", Moves: "query_p50_ms"},
	{Name: "svc.sched_deferred_frac", Unit: "fraction", Better: "lower", Moves: "cycle_p50_ms"},
	{Name: "svc.shared_hit_frac", Unit: "fraction", Better: "higher", Moves: "cycle_p50_ms"},
	{Name: "svc.rows_saved_per_cycle", Unit: "rows", Better: "higher", Moves: "cycle_p50_ms"},
	{Name: "db.pending_rows_p50", Unit: "rows", Better: "lower", Moves: "ci_rel_width_p50"},
	{Name: "db.backlog_slope_rows_s", Unit: "rows/s", Better: "lower", Moves: "ci_rel_width_p50"},
	{Name: "relation.pool_hit_frac", Unit: "fraction", Better: "higher", Moves: "cpu_ms_per_op"},
	{Name: "wal.sync_mean_ms", Unit: "ms", Better: "lower", Moves: "ingest_p50_ms"},
	{Name: "wal.sync_p99_ms", Unit: "ms", Better: "lower", Moves: "ingest_p50_ms"},
	{Name: "wal.syncs_per_kop", Unit: "count", Better: "lower", Moves: "ingest_p50_ms"},
	{Name: "wal.bytes_per_user_byte", Unit: "ratio", Better: "lower", Moves: "sat_ops_s"},
	{Name: "wal.stalls", Unit: "count", Better: "lower", Moves: "ingest_p50_ms"},
	{Name: "wal.checkpoints", Unit: "count", Better: "lower", Moves: "ingest_p50_ms"},
	{Name: "wal.compactions", Unit: "count", Better: "lower", Moves: "ingest_p50_ms"},
	{Name: "wal.recover_ms", Unit: "ms", Better: "lower", Moves: "setup_s"},
	{Name: "wal.recovered_frac", Unit: "fraction", Better: "higher", Moves: "ci_coverage"},
	{Name: "router.prune_frac", Unit: "fraction", Better: "higher", Moves: "query_p50_ms"},
	{Name: "proc.gen_late_p99_ms", Unit: "ms", Better: "lower", Moves: "query_p50_ms"},
	{Name: "proc.gc_cpu_frac", Unit: "fraction", Better: "lower", Moves: "cpu_ms_per_op"},
	{Name: "proc.allocs_per_op", Unit: "count", Better: "lower", Moves: "cpu_ms_per_op"},
	{Name: "proc.offered_over_sat", Unit: "ratio", Better: "lower", Moves: "sat_ops_s"},
	// traced
	{Name: "server.handler_us", Unit: "us", Better: "lower", Moves: "query_p50_ms"},
	{Name: "server.ingest_decode_us", Unit: "us", Better: "lower", Moves: "ingest_p50_ms"},
	{Name: "svcql.parse_us", Unit: "us", Better: "lower", Moves: "query_p50_ms"},
	{Name: "svcql.plan_us", Unit: "us", Better: "lower", Moves: "query_p50_ms"},
	{Name: "svc.query_scalar_us", Unit: "us", Better: "lower", Moves: "query_p50_ms"},
	{Name: "svc.query_groups_us", Unit: "us", Better: "lower", Moves: "query_p50_ms"},
	{Name: "db.stage_ns", Unit: "ns", Better: "lower", Moves: "ingest_p50_ms"},
	{Name: "db.pin_dirty_us", Unit: "us", Better: "lower", Moves: "query_p50_ms"},
	{Name: "db.apply_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms"},
	{Name: "clean.clean_us", Unit: "us", Better: "lower", Moves: "query_p50_ms"},
	{Name: "clean.rows_touched", Unit: "rows", Better: "lower", Moves: "query_p50_ms"},
	{Name: "clean.sample_rows", Unit: "rows", Better: "lower", Moves: "query_p50_ms"},
	{Name: "clean.coerce_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms"},
	{Name: "view.maintain_us", Unit: "us", Better: "lower", Moves: "cycle_p50_ms"},
	{Name: "view.rows_touched", Unit: "rows", Better: "lower", Moves: "cycle_p50_ms"},
	{Name: "view.rows_per_delta_row", Unit: "ratio", Better: "lower", Moves: "cycle_p50_ms"},
	{Name: "algebra.eval_rows_per_ms", Unit: "rows/ms", Better: "higher", Moves: "cycle_p50_ms"},
	{Name: "algebra.allocs_per_cycle", Unit: "count", Better: "lower", Moves: "heap_live_peak_mb"},
	{Name: "estimator.exact_us", Unit: "us", Better: "lower", Moves: "query_p50_ms"},
	{Name: "estimator.corr_us", Unit: "us", Better: "lower", Moves: "query_p50_ms"},
	{Name: "estimator.group_us", Unit: "us", Better: "lower", Moves: "query_p50_ms"},
	{Name: "estimator.advise_us", Unit: "us", Better: "lower", Moves: "query_p50_ms"},
	{Name: "estimator.merge_us", Unit: "us", Better: "lower", Moves: "query_p50_ms"},
	{Name: "outlier.build_us", Unit: "us", Better: "lower", Moves: "query_p50_ms"},
	{Name: "outlier.records", Unit: "rows", Better: "lower", Moves: "query_p50_ms"},
	{Name: "wal.append_us", Unit: "us", Better: "lower", Moves: "ingest_p50_ms"},
	{Name: "router.overhead_us", Unit: "us", Better: "lower", Moves: "query_p50_ms"},
	{Name: "router.slowest_shard_us", Unit: "us", Better: "lower", Moves: "query_p50_ms"},
	{Name: "router.ingest_fanout_us", Unit: "us", Better: "lower", Moves: "ingest_p50_ms"},
	{Name: "shard.hash_ns", Unit: "ns", Better: "lower", Moves: "ingest_p50_ms"},
	{Name: "trace.residual_frac", Unit: "fraction", Better: "lower", Moves: "query_p50_ms"},
	{Name: "trace.query_residual_frac", Unit: "fraction", Better: "lower", Moves: "query_p50_ms"},
	{Name: "trace.cycle_residual_frac", Unit: "fraction", Better: "lower", Moves: "cycle_p50_ms"},
	{Name: "trace.ingest_residual_frac", Unit: "fraction", Better: "lower", Moves: "ingest_p50_ms"},
}, shareMetrics()...)

// shareMetrics names each layer's share of a traced path's self time:
// share.<path>.<layer>.
func shareMetrics() []metricDef {
	moves := map[string]string{"query": "query_p50_ms", "cycle": "cycle_p50_ms", "ingest": "ingest_p50_ms"}
	var out []metricDef
	for _, path := range []string{"query", "cycle", "ingest"} {
		for _, layer := range shareLayers[path] {
			out = append(out, metricDef{Name: "share." + path + "." + layer, Unit: "fraction", Better: "lower", Moves: moves[path]})
		}
	}
	return out
}

func allMetrics() []metricDef {
	return append(append([]metricDef(nil), endToEnd...), perLayer...)
}

var metricIndex = func() map[string]metricDef {
	idx := map[string]metricDef{}
	for _, m := range allMetrics() {
		idx[m.Name] = m
	}
	return idx
}()

func metricByName(name string) (metricDef, bool) {
	m, ok := metricIndex[name]
	return m, ok
}
