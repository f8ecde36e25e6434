package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"sync"
	"time"
)

// The load generator runs as a child process of the benchmark, so that the
// serving stack and the generator do not share a Go scheduler: in one
// process, a generator goroutine waits up to a scheduler time slice
// (~10 ms) for a P whenever maintenance and a query handler hold both, and
// that wait would be charged to every latency. As a separate process the
// kernel runs it as soon as its timer fires.
//
// Parent and child speak JSON lines over the child's stdout, and a single
// "go" line over its stdin:
//
//	child:  {"mark":"ready"}
//	parent: go
//	child:  {"mark":"warm_start","at":…} {"mark":"window_start",…}
//	        {"mark":"window_end",…} {"mark":"sat_end",…}
//	        {"phase":"win","i":3,"conn":1,"due":…,…,"a":{…}} …   one per op
//	        {"done":true,"sat_draws":812}
//
// Both sides derive the same ops from (workload, seed), so samples refer
// to ops by index and never carry them.

// loadLine is one line of the protocol.
type loadLine struct {
	Mark string `json:"mark,omitempty"`
	At   int64  `json:"at,omitempty"` // unix nanoseconds

	Phase string  `json:"phase,omitempty"` // "warm" | "win" | "sat"
	I     int     `json:"i"`               // op index within the phase
	Conn  int     `json:"conn"`
	Due   int64   `json:"due"`
	Sent  int64   `json:"sent"`
	Start int64   `json:"start"`
	End   int64   `json:"end"`
	A     *answer `json:"a,omitempty"`

	Done     bool `json:"done,omitempty"`
	SatDraws int  `json:"sat_draws,omitempty"`
}

// loadParams is what the child needs to regenerate the parent's inputs.
type loadParams struct {
	Addr       string
	Workload   string
	Seed       int64
	Seconds    float64
	Warmup     float64
	Saturation float64
}

func (p loadParams) args() []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	return []string{"-loadgen", "-addr", p.Addr, "-workload", p.Workload, "-seed", strconv.FormatInt(p.Seed, 10),
		"-seconds", f(p.Seconds), "-warmup", f(p.Warmup), "-saturation", f(p.Saturation)}
}

func specByName(name string) (workloadSpec, bool) {
	if name == "smoke" {
		return smokeConfig().Workload, true
	}
	return findWorkload(name)
}

// loadgenMain is the child: it generates the inputs, waits for "go", runs
// warm-up, window and saturation back to back, then reports every sample.
func loadgenMain(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("loadgen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var p loadParams
	fs.Bool("loadgen", true, "")
	fs.StringVar(&p.Addr, "addr", "", "")
	fs.StringVar(&p.Workload, "workload", "", "")
	fs.Int64Var(&p.Seed, "seed", 1, "")
	fs.Float64Var(&p.Seconds, "seconds", 0, "")
	fs.Float64Var(&p.Warmup, "warmup", 0, "")
	fs.Float64Var(&p.Saturation, "saturation", 0, "")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := specByName(p.Workload)
	if !ok || p.Addr == "" {
		fmt.Fprintln(stderr, "loadgen: need -addr and a known -workload")
		return 2
	}
	ds := genDataset(datasets[w.Dataset], p.Seed)
	strm := newStream(w, ds, p.Seed)
	warmOps := strm.schedule(p.Warmup)
	winOps := strm.schedule(p.Seconds)

	nconn := runtime.NumCPU()
	conns := make([]*wireConn, nconn)
	for i := range conns {
		conns[i] = newWireConn(p.Addr)
		defer conns[i].close()
	}
	do := func(c int, o *op) answer { return conns[c].do(o) }

	out := bufio.NewWriterSize(stdout, 1<<20)
	enc := json.NewEncoder(out)
	mark := func(name string) {
		_ = enc.Encode(loadLine{Mark: name, At: time.Now().UnixNano()})
		_ = out.Flush()
	}
	mark("ready")
	if line, err := bufio.NewReader(stdin).ReadString('\n'); err != nil || line != "go\n" {
		fmt.Fprintf(stderr, "loadgen: expected go, got %q (%v)\n", line, err)
		return 1
	}

	mark("warm_start")
	warm := runOpenLoop(warmOps, nconn, do)
	mark("window_start")
	win := runOpenLoop(winOps, nconn, do)
	mark("window_end")
	var mu sync.Mutex
	sat := runClosedLoop(time.Duration(p.Saturation*float64(time.Second)), nconn, func() op {
		mu.Lock()
		defer mu.Unlock()
		return strm.next()
	}, do)
	mark("sat_end")

	emit := func(phase string, samples []sample) {
		for i := range samples {
			s := &samples[i]
			_ = enc.Encode(loadLine{Phase: phase, I: s.Op.Seq, Conn: s.Conn, Due: int64(s.Due), Sent: int64(s.Sent),
				Start: int64(s.Start), End: int64(s.Done), A: &s.Answer})
		}
	}
	emit("warm", warm)
	emit("win", win)
	emit("sat", sat)
	if err := enc.Encode(loadLine{Done: true, SatDraws: strm.draws}); err != nil {
		return 1
	}
	if err := out.Flush(); err != nil {
		return 1
	}
	return 0
}

// loadRun is what the parent learns from the child.
type loadRun struct {
	Warm, Win, Sat []sample
	Marks          map[string]time.Time
}

// runLoad starts the child against addr, lets onReady run (the parent
// starts its clocks there), releases the child, calls onMark as each phase
// boundary is reported, and returns the child's samples bound to the ops
// the parent regenerated from strm. strm is left exactly where the child's
// copy ended, so the epilogue continues the same sequence.
func runLoad(p loadParams, strm *stream, warmOps, winOps []op, onReady func(), onMark func(string)) (*loadRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(exe, p.args()...)
	cmd.Env = append(os.Environ(), loadgenEnv+"=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	run, err := readLoad(stdout, stdin, strm, warmOps, winOps, onReady, onMark)
	if err != nil {
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		return nil, err
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("load generator: %w", err)
	}
	return run, nil
}

// loadgenEnv marks a process as the load-generator child. The test binary
// checks it in TestMain, so the smoke test can spawn itself.
const loadgenEnv = "SVC_BENCHMARK_LOADGEN"

func readLoad(stdout io.Reader, stdin io.WriteCloser, strm *stream, warmOps, winOps []op, onReady func(), onMark func(string)) (*loadRun, error) {
	run := &loadRun{Marks: map[string]time.Time{}}
	var satLines []loadLine
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<26)
	done := false
	for sc.Scan() {
		var l loadLine
		if err := json.Unmarshal(sc.Bytes(), &l); err != nil {
			return nil, fmt.Errorf("load generator said %q: %w", sc.Text(), err)
		}
		switch {
		case l.Mark == "ready":
			onReady()
			if _, err := io.WriteString(stdin, "go\n"); err != nil {
				return nil, err
			}
		case l.Mark != "":
			run.Marks[l.Mark] = time.Unix(0, l.At)
			onMark(l.Mark)
		case l.Done:
			// Draw the saturation ops the child drew, in the same order.
			satOps := make([]op, l.SatDraws)
			for i := range satOps {
				satOps[i] = strm.next()
			}
			for _, sl := range satLines {
				if sl.I < 0 || sl.I >= len(satOps) {
					return nil, fmt.Errorf("load generator: saturation sample refers to draw %d of %d", sl.I, len(satOps))
				}
				run.Sat = append(run.Sat, sampleOf(sl, &satOps[sl.I]))
			}
			done = true
		case l.Phase == "sat":
			satLines = append(satLines, l)
		case l.Phase == "warm" || l.Phase == "win":
			ops, dst := warmOps, &run.Warm
			if l.Phase == "win" {
				ops, dst = winOps, &run.Win
			}
			if l.I < 0 || l.I >= len(ops) {
				return nil, fmt.Errorf("load generator: %s sample refers to op %d of %d", l.Phase, l.I, len(ops))
			}
			*dst = append(*dst, sampleOf(l, &ops[l.I]))
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if !done {
		return nil, fmt.Errorf("load generator ended without reporting")
	}
	return run, nil
}

func sampleOf(l loadLine, o *op) sample {
	s := sample{Op: o, Conn: l.Conn, Due: time.Duration(l.Due), Sent: time.Duration(l.Sent),
		Start: time.Duration(l.Start), Done: time.Duration(l.End)}
	if l.A != nil {
		s.Answer = *l.A
	}
	return s
}
