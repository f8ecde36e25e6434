package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// The smoke run spawns this binary as its load generator; TestMain turns
// such a child into the load generator instead of a test run.
func TestMain(m *testing.M) {
	if os.Getenv(loadgenEnv) != "" {
		os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

// -smoke runs every phase of a real run (set-up, traced pass, child load
// generator, maintenance clock, epilogue, crash recovery) on the small
// dataset with sub-second windows. The full benchmark never runs under
// go test.
func TestSmokeRun(t *testing.T) {
	if testing.Short() {
		t.Skip("boots servers and fsyncs a WAL")
	}
	var stdout, stderr bytes.Buffer
	code := realMain([]string{"-smoke", "-outdir", t.TempDir()}, &stdout, &stderr)
	if code != 0 {
		t.Fatalf("smoke run exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var last struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line is not the result object: %v\n%s", err, lines[len(lines)-1])
	}
	if !last.Correct || last.Attempted < 1 || last.Failed != 0 {
		t.Errorf("smoke result: correct=%v attempted=%d failed=%d", last.Correct, last.Attempted, last.Failed)
	}
	// A traced run reports exactly the per-layer metrics.
	if len(last.Metrics) != len(perLayer) {
		t.Errorf("result carries %d metrics, the per-layer catalogue has %d", len(last.Metrics), len(perLayer))
	}
	for _, m := range perLayer {
		if got, ok := last.Metrics[m.Name]; !ok || got.Unit != m.Unit {
			t.Errorf("metric %s: got %+v, want unit %s", m.Name, got, m.Unit)
		}
	}
	for _, name := range []string{"wal.recovered_frac", "wal.append_us", "clean.clean_us", "server.transport_us"} {
		if last.Metrics[name].Value <= 0 {
			t.Errorf("smoke run measured no %s", name)
		}
	}
	if last.Metrics["wal.recovered_frac"].Value != 1 {
		t.Errorf("recovery lost acknowledged writes: recovered_frac = %v", last.Metrics["wal.recovered_frac"].Value)
	}
}
