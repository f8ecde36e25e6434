package main

import (
	"fmt"
	"path/filepath"
	"time"
)

// tracedPass replays a fixed prefix of the workload's op stream in one
// goroutine against a fresh stack: up to TraceQueries queries,
// TraceBatches ingest batches and TraceCycles maintenance cycles, taken in
// stream order over the first traceStreamSecs of stream time; a cycle runs
// wherever the benchmark's clock would have run one. Every query
// runs both decomposed into layer spans and whole; ingest batches and
// cycles, which cannot be applied twice, alternate between the two forms.
// Counts repeat exactly for a seed; end-to-end metrics never come from
// this pass.
func tracedPass(cfg runConfig, ds *dataset, res *result) error {
	w := cfg.Workload
	var walDir string
	if w.Durable {
		dir, err := scratchDir(filepath.Join(cfg.OutDir, "wal"), w.Name+"-trace")
		if err != nil {
			return err
		}
		walDir = dir
		defer removeAll(walDir)
	}
	st, err := buildStack(w, ds, walDir)
	if err != nil {
		return err
	}
	defer st.close()
	began := time.Now()
	rec := newRecorder()
	tr, err := newTracer(st, rec)
	if err != nil {
		return err
	}

	ops := newStream(w, ds, cfg.Seed).schedule(traceStreamSecs)
	var queries, batches, cyclesDone int
	nextCycle := w.CyclePeriod
	for i := range ops {
		o := &ops[i]
		for o.Due >= nextCycle {
			// A cycle with nothing staged does no work worth attributing.
			if cyclesDone < cfg.TraceCycles && st.pendingRows() > 0 {
				if err := tr.cycle(cyclesDone%2 == 0); err != nil {
					return fmt.Errorf("cycle %d: %w", cyclesDone, err)
				}
				cyclesDone++
			}
			nextCycle += w.CyclePeriod
		}
		switch {
		case o.Kind == opQuery && queries < cfg.TraceQueries:
			if err := tr.query(o); err != nil {
				return fmt.Errorf("query %q: %w", o.SQL, err)
			}
			queries++
		case o.Kind == opIngest && batches < cfg.TraceBatches:
			if err := tr.ingest(o, batches%2 == 0); err != nil {
				return fmt.Errorf("ingest batch %d: %w", batches, err)
			}
			batches++
		}
	}
	res.note("trace", "replayed %d queries, %d ingest batches, %d cycles in %.1f s; %d spans", queries, batches, cyclesDone, time.Since(began).Seconds(), len(rec.spans))
	if err := writeTrace(cfg.OutDir, w.Name, rec.spans); err != nil {
		return err
	}
	tr.report(res)
	return nil
}

// sumDurations adds the durations (ns) of root spans named name and of the
// direct children of those roots.
func sumDurations(spans []span, name string) (roots, children int64, n int) {
	isRoot := map[int]bool{}
	for i, sp := range spans {
		if sp.Parent < 0 && sp.Name == name {
			isRoot[i] = true
			roots += sp.End - sp.Start
			n++
		}
	}
	for _, sp := range spans {
		if sp.Parent >= 0 && isRoot[sp.Parent] {
			children += sp.End - sp.Start
		}
	}
	return
}

// residual compares what the decomposed ops' child spans add up to with
// what the same ops cost when run whole, per op, as a share of the whole.
func residual(spans []span, path string) float64 {
	_, children, n := sumDurations(spans, path)
	whole, _, m := sumDurations(spans, "whole."+path)
	if n == 0 || m == 0 || whole == 0 {
		return 0
	}
	perWhole := float64(whole) / float64(m)
	perParts := float64(children) / float64(n)
	d := perWhole - perParts
	if d < 0 {
		d = -d
	}
	return d / perWhole
}

// report turns the recorded spans and side measurements into the traced
// per-layer metrics.
func (tr *tracer) report(res *result) {
	spans := tr.rec.spans
	us := func(name string) float64 { return median(durationsUS(spans, name)) }

	res.set("server.handler_us", median(tr.handlerUS))
	res.set("server.ingest_decode_us", us("server.ingest_decode")+us("router.ingest_decode"))
	res.set("svcql.parse_us", us("svcql.parse")+us("router.parse"))
	res.set("svcql.plan_us", us("svcql.plan"))
	res.set("svc.query_scalar_us", median(tr.scalarUS))
	res.set("svc.query_groups_us", median(tr.groupsUS))
	res.set("db.stage_ns", median(tr.stageNS))
	res.set("db.pin_dirty_us", median(tr.pinDirtyUS))
	res.set("db.apply_us", us("db.apply"))
	res.set("clean.clean_us", us("clean.clean"))
	res.set("clean.rows_touched", frac(float64(tr.counts.CleanRowsTouched), float64(tr.counts.Cleans)))
	res.set("clean.sample_rows", frac(float64(tr.counts.CleanSampleRows), float64(tr.counts.Cleans)))
	res.set("clean.coerce_us", us("clean.coerce"))
	res.set("view.maintain_us", us("view.maintain"))
	_, _, cyclesDecomposed := sumDurations(spans, "cycle")
	res.set("view.rows_touched", frac(float64(tr.counts.ViewRowsTouched), float64(cyclesDecomposed)))
	res.set("view.rows_per_delta_row", median(tr.rowsPerDelta))
	res.set("algebra.eval_rows_per_ms", median(tr.evalRowsMS))
	res.set("algebra.allocs_per_cycle", median(tr.cycleAllocs))
	res.set("estimator.exact_us", us("estimator.exact"))
	res.set("estimator.corr_us", us("estimator.corr"))
	res.set("estimator.group_us", us("estimator.group"))
	res.set("estimator.advise_us", us("estimator.advise"))
	res.set("estimator.merge_us", us("estimator.merge"))
	res.set("outlier.build_us", us("outlier.build"))
	res.set("outlier.records", frac(float64(tr.counts.OutlierRecords), float64(tr.counts.OutlierBuilds)))
	res.set("wal.append_us", us("wal.append")+us("wal.commit"))
	res.set("router.overhead_us", median(tr.overheadUS))
	res.set("router.slowest_shard_us", median(tr.slowestUS))
	wholeIngest := median(durationsUS(spans, "whole.ingest"))
	if len(tr.shardIngUS) > 0 {
		res.set("router.ingest_fanout_us", wholeIngest-median(tr.shardIngUS))
	}
	res.set("shard.hash_ns", median(tr.hashNS))

	rq, rc, ri := residual(spans, "query"), residual(spans, "cycle"), residual(spans, "ingest")
	res.set("trace.query_residual_frac", rq)
	res.set("trace.cycle_residual_frac", rc)
	res.set("trace.ingest_residual_frac", ri)
	res.set("trace.residual_frac", maxOf([]float64{rq, rc, ri}))

	for _, path := range []string{"query", "cycle", "ingest"} {
		shares := pathShares(spans, path)
		for _, layer := range shareLayers[path] {
			res.set("share."+path+"."+layer, shares[layer])
		}
	}
}

// shareLayers lists, per traced path, the layers whose share of self time
// is reported. "query"/"cycle"/"ingest" as a layer is the root span's own
// self time: work of the path that no child span covers.
var shareLayers = map[string][]string{
	"query":  {"server", "svcql", "db", "clean", "estimator", "outlier", "router", "shard", "query"},
	"cycle":  {"db", "clean", "view", "wal", "svc", "cycle"},
	"ingest": {"server", "db", "wal", "router", "shard", "ingest"},
}
