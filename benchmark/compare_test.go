package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestVerdict(t *testing.T) {
	lower := metricDef{Name: "query_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "sat_ops_s", Better: "higher", Bound: 0.10}
	cases := []struct {
		a, b side
		m    metricDef
		want string
	}{
		{side{5, 10, 0.02}, side{5, 10.5, 0.02}, lower, "unchanged"},
		{side{5, 10, 0.02}, side{5, 12, 0.02}, lower, "worse"},
		{side{5, 10, 0.02}, side{5, 8, 0.02}, lower, "better"},
		{side{5, 100, 0.02}, side{5, 80, 0.02}, higher, "worse"},
		{side{5, 100, 0.02}, side{5, 120, 0.02}, higher, "better"},
		{side{5, 10, 0.30}, side{5, 20, 0.02}, lower, "unresolved"}, // spread wider than the bound
		{side{0, 0, 0}, side{5, 20, 0.02}, lower, "unresolved"},
	}
	for _, c := range cases {
		if _, got := verdict(c.a, c.b, c.m); got != c.want {
			t.Errorf("%s: %v -> %v: verdict %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

func TestCompareFilesExitsNonZeroOnWorse(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, query float64) string {
		var buf bytes.Buffer
		for i := 0; i < 5; i++ {
			r := result{Workload: "dash-read", Metrics: map[string]metricValue{}}
			for _, m := range endToEnd {
				r.Metrics[m.Name] = metricValue{Value: 10 + 0.01*float64(i), Unit: m.Unit}
			}
			r.Metrics["query_p50_ms"] = metricValue{Value: query + 0.01*float64(i), Unit: "ms"}
			if err := json.NewEncoder(&buf).Encode(&r); err != nil {
				t.Fatal(err)
			}
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a, same, slow := write("a.jsonl", 10), write("same.jsonl", 10), write("slow.jsonl", 20)
	var out bytes.Buffer
	if code := compareFiles(a, same, &out, &out); code != 0 {
		t.Errorf("A/A comparison exited %d:\n%s", code, out.String())
	}
	if strings.Contains(out.String(), "unresolved") || strings.Contains(out.String(), "worse") {
		t.Errorf("A/A comparison reported a difference:\n%s", out.String())
	}
	out.Reset()
	if code := compareFiles(a, slow, &out, &out); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("a doubled query_p50_ms must exit 1 with a 'worse' row, got %d:\n%s", code, out.String())
	}
}

// BENCHMARK.json at the root of the repository is generated from spec.go
// (-emit-benchmark-json); this keeps the two from drifting apart.
func TestBenchmarkJSONMatchesDefinition(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	want, err := json.Marshal(benchmarkDefinition())
	if err != nil {
		t.Fatal(err)
	}
	var a, b any
	if err := json.Unmarshal(raw, &a); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(want, &b); err != nil {
		t.Fatal(err)
	}
	ja, _ := json.Marshal(a)
	jb, _ := json.Marshal(b)
	if !bytes.Equal(ja, jb) {
		t.Errorf("BENCHMARK.json is stale; regenerate it with: bash benchmark/run.sh -emit-benchmark-json > BENCHMARK.json")
	}
}
