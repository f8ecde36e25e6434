package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// span is one timed interval of the traced pass. Spans of one op share Op;
// Parent is the index of the enclosing span in the recorder (-1 for a
// root). Times are nanoseconds since the recorder was created.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Parent int    `json:"parent"`
	Op     int    `json:"op"`
}

// recorder keeps the traced pass's spans in memory; they are written out
// once, when the pass ends. It is used from one goroutine only.
type recorder struct {
	t0    time.Time
	spans []span
	stack []int
	op    int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// beginOp opens the root span of a new op and returns its index.
func (r *recorder) beginOp(name string) int {
	r.op++
	r.stack = r.stack[:0]
	return r.begin(name)
}

// innermost is the index of the innermost open span, -1 when none is open.
func (r *recorder) innermost() int {
	if len(r.stack) == 0 {
		return -1
	}
	return r.stack[len(r.stack)-1]
}

// begin opens a span under the innermost open span.
func (r *recorder) begin(name string) int {
	r.spans = append(r.spans, span{Name: name, Start: r.now(), Parent: r.innermost(), Op: r.op})
	id := len(r.spans) - 1
	r.stack = append(r.stack, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (r *recorder) end(id int) {
	r.spans[id].End = r.now()
	r.stack = r.stack[:len(r.stack)-1]
}

// in runs fn inside a span.
func (r *recorder) in(name string, fn func()) {
	id := r.begin(name)
	fn()
	r.end(id)
}

// add records an already-measured interval as a child of the innermost
// open span (used where the callee reports its own boundaries, such as
// the WAL wrapper).
func (r *recorder) add(name string, start, end int64) {
	r.spans = append(r.spans, span{Name: name, Start: start, End: end, Parent: r.innermost(), Op: r.op})
}

// selfTimes returns each span's self time: its duration minus the part of
// its interval that its direct children cover. Children are clipped to the
// parent and overlapping children are counted once.
func selfTimes(spans []span) []int64 {
	type iv struct{ s, e int64 }
	kids := make(map[int][]iv)
	for _, sp := range spans {
		if sp.Parent >= 0 {
			p := spans[sp.Parent]
			s, e := sp.Start, sp.End
			if s < p.Start {
				s = p.Start
			}
			if e > p.End {
				e = p.End
			}
			if e > s {
				kids[sp.Parent] = append(kids[sp.Parent], iv{s, e})
			}
		}
	}
	out := make([]int64, len(spans))
	for i, sp := range spans {
		covered := int64(0)
		ivs := kids[i]
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].s < ivs[b].s })
		var curS, curE int64
		open := false
		for _, k := range ivs {
			if !open || k.s > curE {
				if open {
					covered += curE - curS
				}
				curS, curE, open = k.s, k.e, true
			} else if k.e > curE {
				curE = k.e
			}
		}
		if open {
			covered += curE - curS
		}
		out[i] = (sp.End - sp.Start) - covered
	}
	return out
}

// layerOf maps a span name ("estimator.corr") to its layer ("estimator").
func layerOf(name string) string {
	if i := strings.IndexByte(name, '.'); i >= 0 {
		return name[:i]
	}
	return name
}

// pathShares sums self time by layer over the ops whose root span is named
// root, and returns each layer's share of the total.
func pathShares(spans []span, root string) map[string]float64 {
	self := selfTimes(spans)
	rootOf := func(i int) int {
		for spans[i].Parent >= 0 {
			i = spans[i].Parent
		}
		return i
	}
	byLayer := map[string]int64{}
	var total int64
	for i, sp := range spans {
		if spans[rootOf(i)].Name != root {
			continue
		}
		byLayer[layerOf(sp.Name)] += self[i]
		total += self[i]
	}
	out := map[string]float64{}
	if total == 0 {
		return out
	}
	for l, v := range byLayer {
		out[l] = float64(v) / float64(total)
	}
	return out
}

// durationsUS returns the duration in microseconds of every span named name.
func durationsUS(spans []span, name string) []float64 {
	var out []float64
	for _, sp := range spans {
		if sp.Name == name {
			out = append(out, float64(sp.End-sp.Start)/1e3)
		}
	}
	return out
}

func writeTrace(dir, workload string, spans []span) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	f, err := os.Create(filepath.Join(dir, "trace-"+workload+".json"))
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(spans); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
