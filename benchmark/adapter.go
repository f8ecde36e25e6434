package main

// adapter.go holds every call the benchmark makes into the program under
// test. A later change that renames or removes one of these calls needs a
// benchmark PR; README.md ("Program API the benchmark depends on") lists
// them. Two groups:
//
//   - the timed run uses only the wire API through client, server.New /
//     Config / CreateView / Start / Shutdown, server.NewRouter,
//     shard.Placement, and the root package's NewDatabase, table Insert,
//     ViewFromSQL-backed CreateView, WithOutlierIndex, AttachDurableLog,
//     MaintainNow, MaintainViews, NewScheduler / Register / TickNow / Stats;
//   - the traced pass and the epilogue additionally call the public
//     functions of the internal layers (svcql, db, clean, view, estimator,
//     outlier, shard, algebra, relation; wal through the db.DeltaLog seam) to wrap them in spans and to
//     compute exact truth.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strconv"
	"sync"
	"time"

	svc "github.com/sampleclean/svc"
	"github.com/sampleclean/svc/client"
	"github.com/sampleclean/svc/internal/algebra"
	"github.com/sampleclean/svc/internal/clean"
	"github.com/sampleclean/svc/internal/db"
	"github.com/sampleclean/svc/internal/estimator"
	"github.com/sampleclean/svc/internal/outlier"
	"github.com/sampleclean/svc/internal/relation"
	"github.com/sampleclean/svc/internal/shard"
	"github.com/sampleclean/svc/internal/svcql"
	"github.com/sampleclean/svc/server"
	"github.com/sampleclean/svc/server/api"
)

// ------------------------------------------------------------ stack

// node is one serving process of the stack: a database, its server and
// the views served from it. An unsharded stack has one node.
type node struct {
	d     *svc.Database
	srv   *server.Server
	views map[string]*svc.StaleView
}

// stack is the system under test, booted in-process on loopback.
type stack struct {
	w      workloadSpec
	nodes  []*node
	router *server.Router
	sched  *svc.Scheduler
	wal    *svc.DurableLog
	walDir string
	place  shard.Placement
	addr   string // the front door clients talk to
}

func placementFor(shards int) shard.Placement {
	return shard.Placement{
		Count: shards,
		Tables: map[string]shard.Key{
			"Log":   {Cols: []string{"videoId"}, RowIdx: []int{1}},
			"Video": {Cols: []string{"videoId"}, RowIdx: []int{0}, KeyIdx: []int{0}},
		},
		Views: map[string]shard.Key{"visitView": {Cols: []string{"videoId"}}},
	}
}

func walOptions() svc.DurableLogOptions {
	return svc.DurableLogOptions{SegmentBytes: walSegmentBytes, CheckpointBytes: walCheckpointBytes}
}

func logRow(session, video int64, bytesV float64) svc.Row {
	return svc.Row{svc.Int(session), svc.Int(video), svc.Float(bytesV)}
}

// loadDatabase creates the Video and Log tables and inserts the rows that
// owns accepts (all of them when owns is nil).
func loadDatabase(ds *dataset, owns func(table string, row svc.Row) bool) (*svc.Database, error) {
	d := svc.NewDatabase()
	video, err := d.Create("Video", svc.NewSchema([]svc.Column{
		svc.Col("videoId", svc.KindInt),
		svc.Col("ownerId", svc.KindInt),
		svc.Col("duration", svc.KindFloat),
	}, "videoId"))
	if err != nil {
		return nil, err
	}
	for i := range ds.Owner {
		row := svc.Row{svc.Int(int64(i)), svc.Int(int64(ds.Owner[i])), svc.Float(ds.Duration[i])}
		if owns == nil || owns("Video", row) {
			if err := video.Insert(row); err != nil {
				return nil, err
			}
		}
	}
	logT, err := d.Create("Log", svc.NewSchema([]svc.Column{
		svc.Col("sessionId", svc.KindInt),
		svc.Col("videoId", svc.KindInt),
		svc.Col("bytes", svc.KindFloat),
	}, "sessionId"))
	if err != nil {
		return nil, err
	}
	for i := range ds.LogVideo {
		row := logRow(int64(i), int64(ds.LogVideo[i]), ds.LogBytes[i])
		if owns == nil || owns("Log", row) {
			if err := logT.Insert(row); err != nil {
				return nil, err
			}
		}
	}
	return d, nil
}

// buildStack loads the dataset, materialises the workload's views from
// their svcql text and starts the servers (and router). Its wall time is
// setup_s. walDir is used only by durable workloads and must be empty.
func buildStack(w workloadSpec, ds *dataset, walDir string) (*stack, error) {
	st := &stack{w: w, walDir: walDir}
	shards := w.Shards
	if shards == 0 {
		shards = 1
	}
	st.place = placementFor(shards)
	for id := 0; id < shards; id++ {
		var owns func(string, svc.Row) bool
		if w.Shards > 0 {
			id := id
			owns = func(table string, row svc.Row) bool { return st.place.Owns(table, row, id) }
		}
		d, err := loadDatabase(ds, owns)
		if err != nil {
			return nil, fmt.Errorf("load: %w", err)
		}
		if w.Durable {
			lg, _, err := svc.AttachDurableLog(d, walDir, walOptions())
			if err != nil {
				return nil, fmt.Errorf("attach wal: %w", err)
			}
			st.wal = lg
		}
		n := &node{d: d, views: map[string]*svc.StaleView{}}
		n.srv = server.New(d, server.Config{Addr: "127.0.0.1:0", SamplingRatio: samplingRatio})
		for _, name := range w.Views {
			var opts []svc.Option
			if w.Outlier && name == "trafficView" {
				opts = append(opts, svc.WithOutlierIndex("Log", "bytes", outlierLimit))
			}
			sv, err := n.srv.CreateView(viewSQL[name], opts...)
			if err != nil {
				return nil, fmt.Errorf("create %s: %w", name, err)
			}
			n.views[name] = sv
		}
		if err := n.srv.Start(); err != nil {
			return nil, err
		}
		st.nodes = append(st.nodes, n)
	}
	if w.Maintain == maintainSched {
		st.sched = svc.NewScheduler(st.nodes[0].d, svc.SchedulerConfig{Budget: 1})
		for _, name := range w.Views {
			if err := st.sched.Register(st.nodes[0].views[name]); err != nil {
				return nil, err
			}
		}
	}
	st.addr = st.nodes[0].srv.Addr()
	if w.Shards > 0 {
		addrs := make([]string, len(st.nodes))
		for i, n := range st.nodes {
			addrs[i] = n.srv.Addr()
		}
		rt, err := server.NewRouter(server.RouterConfig{Addr: "127.0.0.1:0", Shards: addrs, Placement: st.place})
		if err != nil {
			return nil, err
		}
		if err := rt.Start(); err != nil {
			return nil, err
		}
		st.router = rt
		st.addr = rt.Addr()
	}
	return st, nil
}

// close stops the servers and closes the WAL; it returns once every
// listener and background goroutine of the stack has stopped.
func (st *stack) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if st.router != nil {
		_ = st.router.Shutdown(ctx)
	}
	for _, n := range st.nodes {
		_ = n.srv.Shutdown(ctx)
	}
	if st.wal != nil {
		_ = st.wal.Close() // closing a killed log reports ErrKilled; nothing to flush either way
	}
}

func (st *stack) orderedViews(n *node) []*svc.StaleView {
	out := make([]*svc.StaleView, 0, len(st.w.Views))
	for _, name := range st.w.Views {
		out = append(out, n.views[name])
	}
	return out
}

// cycleSample is one maintenance call, timed from outside.
type cycleSample struct {
	MS          float64
	Views       int
	RowsTouched int64
	SharedHits  uint64
	SharedMiss  uint64
	RowsSaved   int64
}

// cycle runs the workload's maintenance step once and returns one sample
// per maintenance call it made.
func (st *stack) cycle() ([]cycleSample, error) {
	group := func(call func() (svc.GroupStats, error)) ([]cycleSample, error) {
		t0 := time.Now()
		gs, err := call()
		ms := float64(time.Since(t0)) / 1e6
		if err != nil {
			return nil, err
		}
		return []cycleSample{{MS: ms, Views: gs.Views, RowsTouched: gs.RowsTouched,
			SharedHits: gs.SharedHits, SharedMiss: gs.SharedMisses, RowsSaved: gs.RowsSaved}}, nil
	}
	switch st.w.Maintain {
	case maintainSched:
		return group(st.sched.TickNow)
	case maintainGroup:
		views := st.orderedViews(st.nodes[0])
		return group(func() (svc.GroupStats, error) { return svc.MaintainViews(views...) })
	default:
		var out []cycleSample
		for _, n := range st.nodes {
			for _, sv := range st.orderedViews(n) {
				t0 := time.Now()
				if err := sv.MaintainNow(); err != nil {
					return nil, err
				}
				out = append(out, cycleSample{MS: float64(time.Since(t0)) / 1e6, Views: 1})
			}
		}
		return out, nil
	}
}

// pendingRows is the staged-but-unmaintained Log rows across the stack. It
// reads the live delta sizes, which (unlike Pin) publishes no version.
func (st *stack) pendingRows() int {
	total := 0
	for _, n := range st.nodes {
		ins, del := n.d.Table("Log").PendingSize()
		total += ins + del
	}
	return total
}

// counters is the stack-side slice of the timed per-layer metrics, read
// before and after a window and subtracted.
type counters struct {
	Rejected, TimedOut, Errors uint64
	PoolGets, PoolNews         uint64
	Sched                      svc.SchedulerStats
	WAL                        svc.DurableLogStats
}

func (st *stack) readCounters(cl *client.Client) (counters, error) {
	var c counters
	if st.router != nil {
		var cs api.ClusterStatsResponse
		if err := getJSON("http://"+st.addr+"/stats", &cs); err != nil {
			return c, err
		}
		c.Rejected, c.TimedOut, c.Errors = cs.Rejected, cs.TimedOut, cs.Errors
	} else {
		s, err := cl.Stats()
		if err != nil {
			return c, err
		}
		c.Rejected, c.TimedOut, c.Errors = s.Rejected, s.TimedOut, s.Errors
	}
	pc := relation.ReadPoolCounters()
	c.PoolGets, c.PoolNews = pc.BatchGets+pc.VecGets, pc.BatchNews+pc.VecNews
	if st.sched != nil {
		c.Sched = st.sched.Stats()
	}
	if st.wal != nil {
		c.WAL = st.wal.Stats()
	}
	return c, nil
}

func getJSON(url string, out any) error {
	res, err := http.Get(url)
	if err != nil {
		return err
	}
	defer res.Body.Close()
	if res.StatusCode/100 != 2 {
		return fmt.Errorf("GET %s: status %d", url, res.StatusCode)
	}
	return json.NewDecoder(res.Body).Decode(out)
}

// ------------------------------------------------------------ wire client

// answer is what one op's response looked like to the client.
type answer struct {
	Err        string         `json:"err,omitempty"`       // "" = a 2xx, well-formed response
	ServerMS   float64        `json:"server_ms,omitempty"` // response elapsed_ms (queries)
	Epoch      uint64         `json:"epoch,omitempty"`
	ShardEpoch map[int]uint64 `json:"shard_epoch,omitempty"` // per-shard stamps of a routed answer
	Estimates  []wireEstimate `json:"est,omitempty"`         // one for a scalar, one per group otherwise
	Stale      float64        `json:"stale,omitempty"`
	HasStale   bool           `json:"has_stale,omitempty"`
	Staged     int            `json:"staged,omitempty"`
	Durable    bool           `json:"durable,omitempty"`
	DurableSeq map[int]uint64 `json:"durable_seq,omitempty"` // per shard (shard 0 when unsharded)
}

type wireEstimate struct {
	Key   string  `json:"k,omitempty"`
	Value float64 `json:"v"`
	Lo    float64 `json:"lo"`
	Hi    float64 `json:"hi"`
}

// wireConn is one client connection: its own transport capped at a single
// TCP connection, so a run over n wireConns uses exactly n connections.
type wireConn struct {
	c  *client.Client
	tr *http.Transport
}

func newWireConn(addr string) *wireConn {
	tr := &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DialContext:         (&net.Dialer{Timeout: 5 * time.Second}).DialContext,
	}
	hc := &http.Client{Transport: tr, Timeout: 30 * time.Second}
	return &wireConn{c: client.New(addr, client.WithHTTPClient(hc)), tr: tr}
}

func (wc *wireConn) close() { wc.tr.CloseIdleConnections() }

func ingestOps(batch []rowOp) []api.IngestOp {
	ops := make([]api.IngestOp, len(batch))
	for i, r := range batch {
		switch r.Kind {
		case 'i':
			ops[i] = client.InsertOp(r.Session, r.Video, r.Bytes)
		case 'u':
			ops[i] = client.UpdateOp(r.Session, r.Video, r.Bytes)
		default:
			ops[i] = client.DeleteOp(r.Session)
		}
	}
	return ops
}

// do sends one op over the wire and decodes the parts of the response the
// correctness gate and the metrics need.
func (wc *wireConn) do(o *op) answer {
	if o.Kind == opIngest {
		resp, err := wc.c.Ingest("Log", ingestOps(o.Batch))
		if err != nil {
			return answer{Err: err.Error()}
		}
		return ingestAnswer(resp)
	}
	resp, err := wc.c.Query(o.SQL)
	if err != nil {
		return answer{Err: err.Error()}
	}
	return queryAnswer(resp)
}

func ingestAnswer(resp *api.IngestResponse) answer {
	a := answer{Staged: resp.Staged, Durable: resp.Durable, DurableSeq: map[int]uint64{}}
	if len(resp.Shards) > 0 {
		for _, s := range resp.Shards {
			if s.Durable {
				a.DurableSeq[s.Shard] = s.DurableSeq
			}
		}
	} else if resp.Durable {
		a.DurableSeq[0] = resp.DurableSeq
	}
	return a
}

func queryAnswer(resp *api.QueryResponse) answer {
	a := answer{ServerMS: resp.ElapsedMillis, Epoch: resp.AsOfEpoch}
	if len(resp.Shards) > 0 {
		a.ShardEpoch = map[int]uint64{}
		for _, s := range resp.Shards {
			a.ShardEpoch[s.Shard] = s.AsOfEpoch
		}
	}
	switch {
	case resp.Estimate != nil:
		a.Estimates = []wireEstimate{{Value: resp.Estimate.Value, Lo: resp.Estimate.Lo, Hi: resp.Estimate.Hi}}
		if resp.StaleValue != nil {
			a.Stale, a.HasStale = *resp.StaleValue, true
		}
	case resp.Kind == "groups":
		for _, g := range resp.Groups {
			a.Estimates = append(a.Estimates, wireEstimate{Key: g.Key, Value: g.Value, Lo: g.Lo, Hi: g.Hi})
		}
	default:
		a.Err = fmt.Sprintf("unexpected answer kind %q", resp.Kind)
	}
	// A non-finite number cannot cross the JSON pipe between the load
	// generator and the benchmark; it is a refused answer either way.
	for _, e := range a.Estimates {
		if !finite(e.Value) || !finite(e.Lo) || !finite(e.Hi) || !finite(a.Stale) {
			return answer{Err: fmt.Sprintf("non-finite estimate %v [%v, %v] (stale %v)", e.Value, e.Lo, e.Hi, a.Stale)}
		}
	}
	return a
}

// ------------------------------------------------------------ truth

// stageDirect applies row ops to a database through the staging API, the
// way the server's ingest handler does.
func stageDirect(d *svc.Database, batch []rowOp) error {
	t := d.Table("Log")
	for _, r := range batch {
		var err error
		switch r.Kind {
		case 'i':
			err = t.StageInsert(logRow(r.Session, r.Video, r.Bytes))
		case 'u':
			err = t.StageUpdate(logRow(r.Session, r.Video, r.Bytes))
		default:
			err = t.StageDelete(svc.Int(r.Session))
		}
		if err != nil {
			return fmt.Errorf("stage %c %d: %w", r.Kind, r.Session, err)
		}
	}
	return nil
}

// truthSource answers queries exactly on fully maintained views.
type truthSource struct {
	st    *stack
	d     *svc.Database // the single-process twin of a sharded stack; nil otherwise
	views map[string]*svc.StaleView
}

// newTruth prepares exact answers for the stack. An unsharded stack is its
// own truth once maintained. For a sharded stack the truth is a
// single-process database holding the same rows: the base dataset plus
// every acknowledged op so far.
func (st *stack) newTruth(ds *dataset, acked [][]rowOp) (*truthSource, error) {
	if st.w.Shards == 0 {
		return &truthSource{st: st, views: st.nodes[0].views}, nil
	}
	d, err := loadDatabase(ds, nil)
	if err != nil {
		return nil, err
	}
	ts := &truthSource{st: st, d: d, views: map[string]*svc.StaleView{}}
	for _, name := range st.w.Views {
		def, err := svc.ViewFromSQL(d, viewSQL[name])
		if err != nil {
			return nil, err
		}
		sv, err := svc.New(d, def, svc.WithSamplingRatio(samplingRatio))
		if err != nil {
			return nil, err
		}
		ts.views[name] = sv
	}
	return ts, ts.stage(acked)
}

func (ts *truthSource) stage(batches [][]rowOp) error {
	for _, b := range batches {
		if err := stageDirect(ts.d, b); err != nil {
			return err
		}
	}
	return nil
}

// advance folds everything staged so far into the views exact answers are
// read from (and into the stack's own views), given the batches the stack
// acknowledged since the last call.
func (ts *truthSource) advance(batches [][]rowOp) error {
	if _, err := ts.st.cycle(); err != nil {
		return err
	}
	if ts.d == nil {
		return nil
	}
	if err := ts.stage(batches); err != nil {
		return err
	}
	for _, name := range ts.st.w.Views {
		if err := ts.views[name].MaintainNow(); err != nil {
			return err
		}
	}
	return nil
}

// exact returns the exact answer of o: one value for a scalar, one per
// group label otherwise.
func (ts *truthSource) exact(o *op) (map[string]float64, error) {
	sv := ts.views[o.View]
	aq, err := svcql.PlanQuery(sv.View(), o.SQL)
	if err != nil {
		return nil, err
	}
	if len(aq.GroupBy) == 0 {
		v, err := sv.ExactQuery(aq.Query)
		if err != nil {
			return nil, err
		}
		return map[string]float64{"": v}, nil
	}
	vals, labels, err := estimator.GroupExact(sv.View().Data(), aq.Query, aq.GroupBy)
	if err != nil {
		return nil, err
	}
	out := make(map[string]float64, len(vals))
	for k, v := range vals {
		out[labels[k]] = v
	}
	return out, nil
}

// ------------------------------------------------------------ recovery

// recoverCheck crash-stops the WAL, reloads the base dataset into a fresh
// database, recovers the log into it and checks that the effect of every
// acknowledged row op is present. It returns the recovery time and the
// share of acknowledged row ops found.
func (st *stack) recoverCheck(ds *dataset, acked [][]rowOp) (recoverMS, recoveredFrac float64, err error) {
	st.wal.Kill()
	d, err := loadDatabase(ds, nil)
	if err != nil {
		return 0, 0, err
	}
	t0 := time.Now()
	lg, _, err := svc.AttachDurableLog(d, st.walDir, walOptions())
	if err != nil {
		return 0, 0, fmt.Errorf("recover: %w", err)
	}
	recoverMS = float64(time.Since(t0)) / 1e6
	defer lg.Close()
	if err := d.ApplyDeltas(); err != nil {
		return recoverMS, 0, err
	}
	rows := d.Table("Log").Rows()
	total, found := 0, 0
	for _, b := range acked {
		for _, r := range b {
			total++
			got, ok := rows.Get(svc.Int(r.Session))
			switch r.Kind {
			case 'd':
				if !ok {
					found++
				}
			default:
				if ok && got[1].AsInt() == r.Video && got[2].AsFloat() == r.Bytes {
					found++
				}
			}
		}
	}
	if total == 0 {
		return recoverMS, 1, nil
	}
	return recoverMS, float64(found) / float64(total), nil
}

// ------------------------------------------------------------ traced pass

// tracedLog wraps the durable log behind the db.DeltaLog seam so that
// Append, the commit wait and the boundary record become spans.
type tracedLog struct {
	inner db.DeltaLog
	rec   *recorder
}

func (t *tracedLog) Admit() error   { return t.inner.Admit() }
func (t *tracedLog) SeqNow() uint64 { return t.inner.SeqNow() }

func (t *tracedLog) Append(table string, op db.DeltaOp, row relation.Row) (func() error, error) {
	s := t.rec.now()
	commit, err := t.inner.Append(table, op, row)
	t.rec.add("wal.append", s, t.rec.now())
	if err != nil {
		return nil, err
	}
	return func() error {
		s := t.rec.now()
		err := commit()
		t.rec.add("wal.commit", s, t.rec.now())
		return err
	}, nil
}

func (t *tracedLog) Boundary(applied, cut uint64, snap *db.Version) (func() error, error) {
	s := t.rec.now()
	commit, err := t.inner.Boundary(applied, cut, snap)
	t.rec.add("wal.boundary", s, t.rec.now())
	if err != nil {
		return nil, err
	}
	return func() error {
		s := t.rec.now()
		err := commit()
		t.rec.add("wal.boundary_commit", s, t.rec.now())
		return err
	}, nil
}

// tracer replays ops single-threaded against a stack, once decomposed
// into spans around each layer's public calls and once whole.
type tracer struct {
	st  *stack
	rec *recorder

	samples  map[*svc.StaleView]*epochSamples // the tracer's own per-epoch clean cache
	outliers map[*svc.StaleView]*outlierState
	lastView map[*svc.StaleView]uint64 // epoch of the previous whole query per view
	wrote    bool                      // a batch was staged since the last traced Pin
	shards   []*client.Client          // one direct client per node, for the routed decomposition

	// Side measurements that are not span durations.
	counts       traceCounts
	handlerUS    []float64 // whole handler - cached QuerySQL, cached-epoch ops only
	scalarUS     []float64 // cached-epoch QuerySQL
	groupsUS     []float64 // cached-epoch QueryGroupsSQL
	slowestUS    []float64 // slowest direct shard RTT per routed query
	overheadUS   []float64 // routed whole - slowest direct shard RTT
	shardIngUS   []float64 // slowest direct shard ingest per decomposed batch
	hashNS       []float64
	stageNS      []float64
	pinDirtyUS   []float64
	cycleAllocs  []float64
	rowsPerDelta []float64
	evalRowsMS   []float64
}

type traceCounts struct {
	CleanRowsTouched int64
	CleanSampleRows  int64
	Cleans           int64
	ViewRowsTouched  int64
	OutlierRecords   int64
	OutlierBuilds    int64
}

type epochSamples struct {
	epoch uint64
	s     *clean.Samples
}

type outlierState struct {
	threshold float64
	mz        *outlier.Materializer
	epoch     uint64
	set       *estimator.OutlierSet
}

func newTracer(st *stack, rec *recorder) (*tracer, error) {
	tr := &tracer{st: st, rec: rec,
		samples:  map[*svc.StaleView]*epochSamples{},
		outliers: map[*svc.StaleView]*outlierState{},
		lastView: map[*svc.StaleView]uint64{},
	}
	if st.w.Outlier {
		n := st.nodes[0]
		sv := n.views["trafficView"]
		t := n.d.Table("Log")
		thr, err := outlier.TopKThreshold(t, "bytes", outlierLimit)
		if err != nil {
			return nil, err
		}
		ix, err := outlier.NewIndex("Log", "bytes", t.Schema(), thr, outlierLimit)
		if err != nil {
			return nil, err
		}
		mz, err := outlier.NewMaterializer(sv.View(), ix)
		if err != nil {
			return nil, err
		}
		tr.outliers[sv] = &outlierState{threshold: thr, mz: mz}
	}
	for _, n := range st.nodes {
		tr.shards = append(tr.shards, client.New(n.srv.Addr()))
	}
	if st.wal != nil {
		st.nodes[0].d.SetDeltaLog(&tracedLog{inner: st.wal, rec: rec})
	}
	return tr, nil
}

// serve runs one request through a handler in-process.
func serve(h http.Handler, path string, body []byte) (*httptest.ResponseRecorder, error) {
	w := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	h.ServeHTTP(w, req)
	if w.Code/100 != 2 {
		return w, fmt.Errorf("%s: status %d: %s", path, w.Code, bytes.TrimSpace(w.Body.Bytes()))
	}
	return w, nil
}

// cleanCached is the tracer's stand-in for StaleView's per-epoch sample
// cache: CleanAt runs (inside a span) only when the epoch changed.
func (tr *tracer) cleanCached(sv *svc.StaleView, pin *db.Version) (*clean.Samples, error) {
	if c := tr.samples[sv]; c != nil && c.epoch == pin.Epoch() {
		return c.s, nil
	}
	var s *clean.Samples
	var err error
	tr.rec.in("clean.clean", func() {
		s, err = sv.Cleaner().CleanAt(pin, sv.View().Data(), sv.Cleaner().StaleSample())
	})
	if err != nil {
		return nil, err
	}
	tr.counts.Cleans++
	tr.counts.CleanRowsTouched += s.Stats.RowsTouched
	tr.counts.CleanSampleRows += int64(s.Fresh.Len())
	tr.samples[sv] = &epochSamples{epoch: pin.Epoch(), s: s}
	return s, nil
}

func (tr *tracer) outlierCached(sv *svc.StaleView, pin *db.Version) (*estimator.OutlierSet, error) {
	os := tr.outliers[sv]
	if os == nil {
		return nil, nil
	}
	if os.set != nil && os.epoch == pin.Epoch() {
		return os.set, nil
	}
	var set *estimator.OutlierSet
	var err error
	tr.rec.in("outlier.build", func() {
		var ix *outlier.Index
		ix, err = outlier.NewIndex("Log", "bytes", pin.Base("Log").Schema(), os.threshold, outlierLimit)
		if err != nil {
			return
		}
		if err = ix.BuildFromVersion(pin); err != nil {
			return
		}
		set, err = os.mz.MaterializeRecords(pin, sv.View().Data(), ix.Records())
	})
	if err != nil {
		return nil, err
	}
	tr.counts.OutlierBuilds++
	tr.counts.OutlierRecords += int64(set.Len())
	os.set, os.epoch = set, pin.Epoch()
	return set, nil
}

// query replays one query op: decomposed, then whole through the
// handler, then the library call alone.
func (tr *tracer) query(o *op) error {
	if tr.st.router != nil {
		return tr.routedQuery(o)
	}
	n := tr.st.nodes[0]
	sv := n.views[o.View]
	body, err := json.Marshal(&api.QueryRequest{SQL: o.SQL})
	if err != nil {
		return err
	}
	dirty := tr.wrote
	tr.wrote = false

	// Decomposed: the steps server.handleQuery -> StaleView.QuerySQL takes,
	// each inside a span.
	rec := tr.rec
	root := rec.beginOp("query")
	var req api.QueryRequest
	rec.in("server.decode", func() { err = json.NewDecoder(bytes.NewReader(body)).Decode(&req) })
	if err != nil {
		return err
	}
	rec.in("svcql.parse", func() { _, _, err = svcql.Parse(req.SQL) })
	if err != nil {
		return err
	}
	var aq svcql.AggQuery
	rec.in("svcql.plan", func() { aq, err = svcql.PlanQuery(sv.View(), req.SQL) })
	if err != nil {
		return err
	}
	var pin *db.Version
	pinID := rec.begin("db.pin")
	pin = n.d.Pin()
	rec.end(pinID)
	if dirty {
		tr.pinDirtyUS = append(tr.pinDirtyUS, float64(rec.spans[pinID].End-rec.spans[pinID].Start)/1e3)
	}
	samples, err := tr.cleanCached(sv, pin)
	if err != nil {
		return err
	}
	viewData := sv.View().Data()
	resp := &api.QueryResponse{View: o.View, AsOfEpoch: pin.Epoch(), AppliedSeq: pin.AppliedSeq(), Pending: pin.HasPending()}
	if len(aq.GroupBy) > 0 {
		var advised string
		rec.in("estimator.advise", func() { advised, err = estimator.Advise(samples, aq.Query) })
		if err != nil {
			return err
		}
		var res estimator.GroupResult
		rec.in("estimator.group", func() {
			if advised == "svc+corr" {
				res, err = estimator.GroupCorr(viewData, samples, aq.Query, aq.GroupBy, confidenceLevel)
			} else {
				res, err = estimator.GroupAQP(samples, aq.Query, aq.GroupBy, confidenceLevel)
			}
		})
		if err != nil {
			return err
		}
		resp.Kind = "groups"
		for k, e := range res.Groups {
			resp.Groups = append(resp.Groups, api.Group{Key: res.Labels[k], Estimate: apiEstimate(e)})
		}
	} else {
		var stale float64
		rec.in("estimator.exact", func() { stale, err = estimator.RunExact(viewData, aq.Query) })
		if err != nil {
			return err
		}
		oset, err := tr.outlierCached(sv, pin)
		if err != nil {
			return err
		}
		var advised string
		rec.in("estimator.advise", func() { advised, err = estimator.Advise(samples, aq.Query) })
		if err != nil {
			return err
		}
		var est estimator.Estimate
		rec.in("estimator.corr", func() {
			switch {
			case advised == "svc+corr" && oset != nil:
				est, err = estimator.CorrWithOutliers(viewData, samples, oset, aq.Query, confidenceLevel)
			case advised == "svc+corr":
				est, err = estimator.Corr(viewData, samples, aq.Query, confidenceLevel)
			case oset != nil:
				est, err = estimator.AQPWithOutliers(samples, oset, aq.Query, confidenceLevel)
			default:
				est, err = estimator.AQP(samples, aq.Query, confidenceLevel)
			}
		})
		if err != nil {
			return err
		}
		resp.Kind = "estimate"
		e := apiEstimate(est)
		resp.Estimate = &e
		resp.StaleValue = &stale
	}
	rec.in("server.encode", func() { err = json.NewEncoder(httptest.NewRecorder()).Encode(resp) })
	if err != nil {
		return err
	}
	rec.end(root)

	// Whole: the same request through the real handler.
	cachedEpoch := tr.lastView[sv] == pin.Epoch()
	whole := rec.beginOp("whole.query")
	_, err = serve(n.srv.Handler(), "/query", body)
	rec.end(whole)
	if err != nil {
		return err
	}
	tr.lastView[sv] = pin.Epoch()

	// The library call alone, on the epoch the handler just warmed.
	t0 := time.Now()
	if o.Grouped {
		_, err = sv.QueryGroupsSQL(o.SQL)
	} else {
		_, err = sv.QuerySQL(o.SQL)
	}
	libUS := float64(time.Since(t0)) / 1e3
	if err != nil {
		return err
	}
	if o.Grouped {
		tr.groupsUS = append(tr.groupsUS, libUS)
	} else {
		tr.scalarUS = append(tr.scalarUS, libUS)
	}
	if cachedEpoch {
		wholeUS := float64(rec.spans[whole].End-rec.spans[whole].Start) / 1e3
		tr.handlerUS = append(tr.handlerUS, wholeUS-libUS)
	}
	return nil
}

// apiEstimate is the wire form of an engine estimate, as the server builds it.
func apiEstimate(e estimator.Estimate) api.Estimate {
	return api.Estimate{Value: e.Value, Lo: e.Lo, Hi: e.Hi, Confidence: e.Confidence, Method: e.Method, K: e.K}
}

func partialFromWire(w *api.PartialEstimate) (estimator.Partial, error) {
	var agg estimator.Agg
	switch w.Agg {
	case "sum":
		agg = estimator.SumQ
	case "count":
		agg = estimator.CountQ
	case "avg":
		agg = estimator.AvgQ
	default:
		return estimator.Partial{}, fmt.Errorf("partial has aggregate %q", w.Agg)
	}
	return estimator.Partial{Agg: agg, Method: w.Method, Ratio: w.Ratio,
		K: w.K, Stale: w.Stale, Sum: w.Sum, SumSq: w.SumSq,
		CntK: w.CntK, CntStale: w.CntStale, CntSum: w.CntSum, CntSumSq: w.CntSumSq}, nil
}

// gather sends one request to each listed shard concurrently, the way the
// router does, and returns the responses with each call's round trip.
func (tr *tracer) gather(ids []int, call func(c *client.Client, id int) error) ([]float64, error) {
	rtts := make([]float64, len(ids))
	errs := make([]error, len(ids))
	var wg sync.WaitGroup
	for i, id := range ids {
		wg.Add(1)
		go func(i, id int) {
			defer wg.Done()
			t0 := time.Now()
			errs[i] = call(tr.shards[id], id)
			rtts[i] = float64(time.Since(t0)) / 1e3
		}(i, id)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return rtts, nil
}

// routedQuery decomposes the router's path: parse, route, shard wait
// (direct calls to the shards, concurrent like the router's), merge,
// encode; then runs the same query whole through the router's handler.
func (tr *tracer) routedQuery(o *op) error {
	body, err := json.Marshal(&api.QueryRequest{SQL: o.SQL})
	if err != nil {
		return err
	}
	if tr.wrote {
		// A shard's StaleView caches the cleaned sample per epoch, so
		// whichever of the two measured forms ran first after a write
		// would pay the clean for both. An unmeasured query to every shard
		// puts both on a cleaned epoch; what a clean costs is measured on
		// the unsharded workloads.
		tr.wrote = false
		all := make([]int, len(tr.st.nodes))
		for i := range all {
			all[i] = i
		}
		if _, err := tr.gather(all, func(c *client.Client, id int) error {
			_, err := c.QueryRequest(&api.QueryRequest{SQL: o.SQL, Partial: true})
			return err
		}); err != nil {
			return err
		}
	}
	rec := tr.rec
	root := rec.beginOp("query")
	var req api.QueryRequest
	rec.in("router.decode", func() { err = json.NewDecoder(bytes.NewReader(body)).Decode(&req) })
	if err != nil {
		return err
	}
	var sel *svcql.SelectStmt
	rec.in("router.parse", func() { _, sel, err = svcql.Parse(req.SQL) })
	if err != nil {
		return err
	}
	ids := make([]int, len(tr.st.nodes))
	for i := range ids {
		ids[i] = i
	}
	pruned := o.QKind == qVisitPoint
	if pruned {
		var h uint64
		rec.in("shard.hash", func() {
			h, err = shard.HashJSON([]any{pointKey(sel)})
		})
		if err != nil {
			return err
		}
		ids = []int{tr.st.place.ShardOf(h)}
	}
	resps := make([]*api.QueryResponse, len(ids))
	preq := req
	preq.Partial = !pruned
	var rtts []float64
	rec.in("shard.wait", func() {
		rtts, err = tr.gather(ids, func(c *client.Client, id int) error {
			r, err := c.QueryRequest(&preq)
			for i := range ids {
				if ids[i] == id {
					resps[i] = r
				}
			}
			return err
		})
	})
	if err != nil {
		return err
	}
	out := &api.QueryResponse{Kind: "estimate", View: o.View}
	if pruned {
		out = resps[0]
	} else {
		rec.in("estimator.merge", func() { err = mergeInto(out, resps, o.Grouped) })
		if err != nil {
			return err
		}
	}
	rec.in("router.encode", func() { err = json.NewEncoder(httptest.NewRecorder()).Encode(out) })
	if err != nil {
		return err
	}
	rec.end(root)

	whole := rec.beginOp("whole.query")
	_, err = serve(tr.st.router.Handler(), "/query", body)
	rec.end(whole)
	if err != nil {
		return err
	}
	slowest := maxOf(rtts)
	tr.slowestUS = append(tr.slowestUS, slowest)
	tr.overheadUS = append(tr.overheadUS, float64(rec.spans[whole].End-rec.spans[whole].Start)/1e3-slowest)
	return nil
}

// pointKey extracts K from "WHERE videoId = K" as the JSON number the
// router hashes.
func pointKey(sel *svcql.SelectStmt) any {
	if sel.Where == nil || sel.Where.R == nil {
		return 0.0
	}
	k, _ := strconv.ParseFloat(sel.Where.R.Text, 64)
	return k
}

// mergeInto composes the shards' partial statistics into one answer with
// the estimator's merge algebra, as the router does.
func mergeInto(out *api.QueryResponse, resps []*api.QueryResponse, grouped bool) error {
	if !grouped {
		parts := make([]estimator.Partial, 0, len(resps))
		for _, r := range resps {
			if r.Partial == nil {
				return fmt.Errorf("shard returned %q, want partial", r.Kind)
			}
			p, err := partialFromWire(r.Partial)
			if err != nil {
				return err
			}
			parts = append(parts, p)
		}
		merged, err := estimator.MergePartials(parts...)
		if err != nil {
			return err
		}
		est, err := merged.Finalize(confidenceLevel)
		if err != nil {
			return err
		}
		e := apiEstimate(est)
		out.Estimate = &e
		return nil
	}
	sets := make([]estimator.GroupPartialResult, 0, len(resps))
	for _, r := range resps {
		set := estimator.GroupPartialResult{Groups: map[string]estimator.Partial{}, Labels: map[string]string{}}
		for i := range r.GroupPartials {
			gp := &r.GroupPartials[i]
			p, err := partialFromWire(&gp.PartialEstimate)
			if err != nil {
				return err
			}
			set.Groups[gp.Key] = p
			set.Labels[gp.Key] = gp.Label
		}
		sets = append(sets, set)
	}
	merged, err := estimator.MergeGroupPartials(sets...)
	if err != nil {
		return err
	}
	res, err := merged.Finalize(confidenceLevel)
	if err != nil {
		return err
	}
	out.Kind = "groups"
	for k, e := range res.Groups {
		out.Groups = append(out.Groups, api.Group{Key: res.Labels[k], Estimate: apiEstimate(e)})
	}
	return nil
}

// ingest replays one ingest batch, decomposed when decompose is set and
// whole through the front door's handler otherwise (a batch cannot be
// applied twice, so the two forms alternate over the stream).
func (tr *tracer) ingest(o *op, decompose bool) error {
	tr.wrote = true
	body, err := json.Marshal(&api.IngestRequest{Table: "Log", Ops: ingestOps(o.Batch)})
	if err != nil {
		return err
	}
	rec := tr.rec
	if !decompose {
		h := tr.st.nodes[0].srv.Handler()
		if tr.st.router != nil {
			h = tr.st.router.Handler()
		}
		whole := rec.beginOp("whole.ingest")
		_, err = serve(h, "/ingest", body)
		rec.end(whole)
		return err
	}
	if tr.st.router != nil {
		return tr.routedIngest(o, body)
	}
	n := tr.st.nodes[0]
	root := rec.beginOp("ingest")
	var req api.IngestRequest
	rows := make([]relation.Row, len(o.Batch))
	rec.in("server.ingest_decode", func() {
		if err = json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
			return
		}
		for i, wop := range req.Ops {
			vals := wop.Row
			if wop.Op == "delete" {
				vals = wop.Key
			}
			row := make(relation.Row, len(vals))
			for j, v := range vals {
				f, _ := v.(float64)
				if j < 2 {
					row[j] = relation.Int(int64(f))
				} else {
					row[j] = relation.Float(f)
				}
			}
			rows[i] = row
		}
	})
	if err != nil {
		return err
	}
	t := n.d.Table(req.Table)
	for i, wop := range req.Ops {
		id := rec.begin("db.stage")
		switch wop.Op {
		case "insert":
			err = t.StageInsert(rows[i])
		case "update":
			err = t.StageUpdate(rows[i])
		default:
			err = t.StageDelete(rows[i]...)
		}
		rec.end(id)
		if err != nil {
			return err
		}
		tr.stageNS = append(tr.stageNS, float64(rec.spans[id].End-rec.spans[id].Start))
	}
	rec.in("server.encode", func() {
		err = json.NewEncoder(httptest.NewRecorder()).Encode(&api.IngestResponse{Staged: len(rows), Durable: tr.st.wal != nil})
	})
	rec.end(root)
	return err
}

// routedIngest decomposes the router's ingest path: decode, placement hash
// per row, fan-out to the owning shards (direct, concurrent), encode.
func (tr *tracer) routedIngest(o *op, body []byte) error {
	rec := tr.rec
	root := rec.beginOp("ingest")
	var req api.IngestRequest
	var err error
	rec.in("router.ingest_decode", func() { err = json.NewDecoder(bytes.NewReader(body)).Decode(&req) })
	if err != nil {
		return err
	}
	batches := make([][]api.IngestOp, len(tr.st.nodes))
	for _, wop := range req.Ops {
		id := rec.begin("shard.hash")
		h, err := shard.HashJSON([]any{wop.Row[1]})
		rec.end(id)
		if err != nil {
			return err
		}
		tr.hashNS = append(tr.hashNS, float64(rec.spans[id].End-rec.spans[id].Start))
		s := tr.st.place.ShardOf(h)
		batches[s] = append(batches[s], wop)
	}
	var ids []int
	for i, b := range batches {
		if len(b) > 0 {
			ids = append(ids, i)
		}
	}
	var rtts []float64
	rec.in("shard.wait", func() {
		rtts, err = tr.gather(ids, func(c *client.Client, id int) error {
			_, err := c.Ingest(req.Table, batches[id])
			return err
		})
	})
	if err != nil {
		return err
	}
	rec.in("router.encode", func() {
		err = json.NewEncoder(httptest.NewRecorder()).Encode(&api.IngestResponse{Staged: len(req.Ops)})
	})
	rec.end(root)
	tr.shardIngUS = append(tr.shardIngUS, maxOf(rtts))
	return err
}

// cycle runs one maintenance step, decomposed into the layer calls
// MaintainNow / MaintainViews make (pin, clean, coerce, maintain, apply,
// publish) or whole through the workload's maintenance call.
func (tr *tracer) cycle(decompose bool) error {
	rec := tr.rec
	pending := tr.st.pendingRows()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	t0 := time.Now()
	var touched int64
	if !decompose {
		whole := rec.beginOp("whole.cycle")
		_, err := tr.st.cycle()
		rec.end(whole)
		if err != nil {
			return err
		}
	} else {
		root := rec.beginOp("cycle")
		for _, n := range tr.st.nodes {
			rt, err := tr.cycleNode(n)
			if err != nil {
				return err
			}
			touched += rt
		}
		rec.end(root)
	}
	elapsedMS := float64(time.Since(t0)) / 1e6
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	tr.cycleAllocs = append(tr.cycleAllocs, float64(ms1.Mallocs-ms0.Mallocs))
	if decompose {
		if pending > 0 {
			tr.rowsPerDelta = append(tr.rowsPerDelta, float64(touched)/float64(pending))
		}
		if elapsedMS > 0 {
			tr.evalRowsMS = append(tr.evalRowsMS, float64(touched)/elapsedMS)
		}
	}
	return nil
}

// cycleNode is one node's decomposed group cycle; it returns the rows the
// clean and maintain evaluations touched.
func (tr *tracer) cycleNode(n *node) (int64, error) {
	rec := tr.rec
	views := tr.st.orderedViews(n)
	var pin *db.Version
	rec.in("db.pin", func() { pin = n.d.Pin() })
	var cache *algebra.SubplanCache
	if len(views) > 1 {
		cache = algebra.NewSubplanCache(pin.Epoch())
		defer cache.Release()
	}
	type publication struct {
		sv                 *svc.StaleView
		maintained, sample *relation.Relation
	}
	var pubs []publication
	var touched int64
	for _, sv := range views {
		samples, err := tr.cleanCached(sv, pin)
		if err != nil {
			return 0, err
		}
		touched += samples.Stats.RowsTouched
		var newSample *relation.Relation
		rec.in("clean.coerce", func() { newSample, err = sv.Cleaner().CoerceSample(samples) })
		if err != nil {
			return 0, err
		}
		var maintained *relation.Relation
		var rows int64
		rec.in("view.maintain", func() {
			if cache != nil {
				m, st, e := sv.Maintainer().MaintainAtShared(pin, sv.View().Data(), cache)
				maintained, rows, err = m, st.RowsTouched, e
			} else {
				m, st, e := sv.Maintainer().MaintainAt(pin, sv.View().Data())
				maintained, rows, err = m, st.RowsTouched, e
			}
		})
		if err != nil {
			return 0, err
		}
		touched += rows
		tr.counts.ViewRowsTouched += rows
		pubs = append(pubs, publication{sv, maintained, newSample})
	}
	var err error
	rec.in("db.apply", func() { err = n.d.ApplyVersion(pin, nil) })
	if err != nil {
		return 0, err
	}
	rec.in("svc.publish", func() {
		for _, p := range pubs {
			if err = p.sv.View().Replace(p.maintained); err != nil {
				return
			}
			p.sv.Cleaner().AdoptRelation(p.sample)
		}
	})
	return touched, err
}

// scratchDir returns a fresh directory under base for one WAL.
func scratchDir(base, name string) (string, error) {
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, name+"-")
}

// removeAll deletes a directory scratchDir returned ("" = none was made).
func removeAll(dir string) {
	if dir != "" {
		_ = os.RemoveAll(dir)
	}
}
