// Command benchmark is the repository's yardstick: four open-loop serving
// workloads against the real stack booted in-process, every metric printed
// by name with its unit, and a traced pass that splits the cost by layer.
// README.md in this directory is the manual.
//
//	bash benchmark/run.sh --workload dash-read --seed 1 --seconds 12 --trace 0
//	bash benchmark/run.sh --workload dash-read --seed 1 --seconds 12 --trace 1
//	bash benchmark/run.sh -out benchmark/out/A.jsonl --workload churn-fresh
//	bash benchmark/run.sh -compare benchmark/out/A.jsonl benchmark/out/B.jsonl
//	bash benchmark/run.sh -smoke
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	if os.Getenv(loadgenEnv) != "" {
		return loadgenMain(args, os.Stdin, stdout, stderr)
	}
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		workload = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), " | "))
		seed     = fs.Int64("seed", 1, "seed for the dataset and the op stream")
		seconds  = fs.Float64("seconds", runSeconds, "length of the open-loop window")
		trace    = fs.Int("trace", 0, "0: timed run, print end-to-end metrics; 1: also the traced pass, print per-layer metrics")
		out      = fs.String("out", "", "append the full result (every metric) as one JSON line to this file")
		outDir   = fs.String("outdir", filepath.Join("benchmark", "out"), "directory for traces and WAL scratch files")
		compare  = fs.Bool("compare", false, "compare two result files: -compare A.jsonl B.jsonl")
		smoke    = fs.Bool("smoke", false, "self-test: small dataset, 1 s windows, both passes")
		emit     = fs.Bool("emit-benchmark-json", false, "print BENCHMARK.json for the current definition and exit")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *emit:
		return emitBenchmarkJSON(stdout, stderr)
	case *compare:
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: -compare A.jsonl B.jsonl")
			return 2
		}
		return compareFiles(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}

	var cfg runConfig
	if *smoke {
		cfg = smokeConfig()
	} else {
		w, ok := findWorkload(*workload)
		if !ok {
			fmt.Fprintf(stderr, "unknown -workload %q (want %s)\n", *workload, strings.Join(workloadNames(), ", "))
			return 2
		}
		cfg = defaultConfig(w)
		cfg.Seconds, cfg.Trace = *seconds, *trace != 0
	}
	cfg.Seed, cfg.OutDir = *seed, *outDir
	if cfg.Trace {
		cfg.SetupRepeats = 1 // setup_s is an end-to-end metric; the traced run spends the time on the traced pass
	}
	if cfg.Seconds <= 0 {
		fmt.Fprintln(stderr, "-seconds must be positive")
		return 2
	}

	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %v\n", err)
		return 1
	}
	printReport(stdout, res)
	if *out != "" {
		if err := appendResult(*out, res); err != nil {
			fmt.Fprintf(stderr, "benchmark: %v\n", err)
			return 1
		}
	}
	printDriverLine(stdout, res)
	if !res.Correct {
		return 1
	}
	return 0
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// printReport prints every metric the run produced, by name, with its unit.
func printReport(w io.Writer, res *result) {
	fmt.Fprintf(w, "workload %s  seed %d  window %gs  trace %v  digest %s\n", res.Workload, res.Seed, res.Seconds, res.Trace, res.Digest)
	keys := make([]string, 0, len(res.Env))
	for k := range res.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  env %-10s %s\n", k, res.Env[k])
	}
	section := func(title string, defs []metricDef) {
		fmt.Fprintf(w, "%s\n", title)
		for _, m := range defs {
			v := res.Metrics[m.Name]
			fmt.Fprintf(w, "  %-32s %16.6g %-9s (%s is better)\n", m.Name, v.Value, v.Unit, m.Better)
		}
	}
	section("end-to-end metrics", endToEnd)
	section("per-layer metrics (traced ones are 0 unless -trace 1)", perLayer)
	keys = keys[:0]
	for k := range res.Notes {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "  note %s: %s\n", k, res.Notes[k])
	}
	for _, p := range res.Problems {
		fmt.Fprintf(w, "  PROBLEM: %s\n", p)
	}
	fmt.Fprintf(w, "correct %v  attempted %d  failed %d\n", res.Correct, res.Attempted, res.Failed)
}

// printDriverLine prints the one-line JSON object the driver reads: with
// -trace 0 every end-to-end metric, with -trace 1 every per-layer metric.
func printDriverLine(w io.Writer, res *result) {
	defs := endToEnd
	if res.Trace {
		defs = perLayer
	}
	ms := make(map[string]metricValue, len(defs))
	for _, m := range defs {
		ms[m.Name] = res.Metrics[m.Name]
	}
	attempted := res.Attempted
	if attempted < 1 {
		attempted = 1
	}
	line, _ := json.Marshal(struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{res.Correct, attempted, res.Failed, ms})
	fmt.Fprintf(w, "%s\n", line)
}

func appendResult(path string, res *result) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if err := json.NewEncoder(f).Encode(res); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// benchmarkFile is the schema of BENCHMARK.json.
type benchmarkFile struct {
	Command    []string            `json:"command"`
	Paths      []string            `json:"paths"`
	RunSeconds int                 `json:"run_seconds"`
	Workloads  []map[string]string `json:"workloads"`
	EndToEnd   []map[string]any    `json:"end_to_end"`
	PerLayer   []map[string]string `json:"per_layer"`
}

func benchmarkDefinition() benchmarkFile {
	bf := benchmarkFile{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloads {
		bf.Workloads = append(bf.Workloads, map[string]string{"name": w.Name, "why": w.Why})
	}
	for _, m := range endToEnd {
		bf.EndToEnd = append(bf.EndToEnd, map[string]any{"name": m.Name, "unit": m.Unit, "better": m.Better, "bound": m.Bound})
	}
	for _, m := range perLayer {
		bf.PerLayer = append(bf.PerLayer, map[string]string{"name": m.Name, "unit": m.Unit, "better": m.Better})
	}
	return bf
}

func emitBenchmarkJSON(stdout, stderr io.Writer) int {
	b, err := json.MarshalIndent(benchmarkDefinition(), "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	return 0
}
