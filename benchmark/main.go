// Command benchmark is this repository's end-to-end benchmark: what someone
// fine-tuning with PEFT waits for (set-up, the first step, every next step)
// and what a client of longexpd waits for (the first token, every next
// token), on seven named workloads, with a separate traced run that times
// each layer's public functions. See README.md in this directory.
//
//	go run ./benchmark [-workload re] [-seed N] [-seconds S] [-trace 0|1] [-out dir]
//	go run ./benchmark -compare a.jsonl b.jsonl
//
// Run it from the repository root. Each workload ends with one JSON line
// {"correct", "attempted", "failed", "metrics"}; the same record, with
// detail rows and the machine state, is appended to <out>/runs.jsonl.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"syscall"
	"time"

	"longexposure/internal/parallel"
	"longexposure/internal/tensor"
)

// value is one metric in the result line.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// row is one printed measurement with the number of samples behind it.
type row struct {
	name string
	v    float64
	unit string
	n    int
}

// outcome is what one workload run measured and checked.
type outcome struct {
	rows []row
	// attempted and failed count operations (steps or requests) of the
	// timed windows; an operation whose output is wrong is a failed one.
	attempted, failed int
	// problems are failed correctness checks that are not tied to one
	// operation (loss did not fall, child exited non-zero, …).
	problems []string
}

func (o *outcome) add(name string, v float64, unit string, n int) {
	o.rows = append(o.rows, row{name, v, unit, n})
}

func (o *outcome) problemf(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

func (o *outcome) get(name string) (row, bool) {
	for _, r := range o.rows {
		if r.name == name {
			return r, true
		}
	}
	return row{}, false
}

// runOpts are the driver's arguments for one workload run.
type runOpts struct {
	seed    uint64
	seconds int
	traced  bool
	outDir  string
}

// traceSlices is how many alternating untraced/traced pairs of windows a
// traced run is cut into. The box's speed drifts by tens of percent over
// seconds; alternating short windows puts both sides under the same drift,
// so trace_overhead compares tracing and not the weather.
const traceSlices = 5

// windows is the timed windows of one run: one of the full length, or —
// traced — traceSlices untraced and as many traced ones sharing it.
func (o runOpts) windows() (n int, d time.Duration) {
	d = time.Duration(o.seconds) * time.Second
	if o.traced {
		return traceSlices, d / (2 * traceSlices)
	}
	return 1, d
}

// env is the machine state recorded with every result.
type env struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Workers    int    `json:"parallel_workers"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
}

func currentEnv() env {
	commit := "unknown" // the driver's checkout is not a git repository
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return env{runtime.NumCPU(), runtime.GOMAXPROCS(0), parallel.Workers(), runtime.Version(), commit}
}

// result is the line every workload run ends with: the end-to-end metrics
// of an untraced run, the per-layer metrics of a traced one.
type result struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// record is one line of runs.jsonl: the result plus everything else the run
// printed and the machine it ran on.
type record struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	result
	Detail   map[string]value `json:"detail"`
	Samples  map[string]int   `json:"samples"`
	Problems []string         `json:"problems,omitempty"`
	Noise    float64          `json:"noise"`
	Unstable bool             `json:"unstable"`
	Env      env              `json:"env"`
	// Claim stays null: the benchmark measures, it claims no gain.
	Claim *string `json:"claim"`
}

// guardGFLOPS times a fixed pure-Go 128³ MatMul for 200 ms and returns the
// rate. This box flips between a fast and a slow state for the same work;
// a workload whose before and after rates differ by more than unstableNoise
// is marked unstable in its record.
func guardGFLOPS() float64 {
	const n = 128
	a, b, c := tensor.New(n, n), tensor.New(n, n), tensor.New(n, n)
	a.Fill(0.5)
	b.Fill(0.25)
	t0, iters := time.Now(), 0
	for time.Since(t0) < 200*time.Millisecond {
		tensor.MatMulInto(c, a, b)
		iters++
	}
	return 2 * n * n * n * float64(iters) / time.Since(t0).Seconds() / 1e9
}

const unstableNoise = 0.10

// procs is the GOMAXPROCS of the benchmark process and of the child
// daemon. On this 2-vCPU box the second vCPU comes and goes with the
// neighbours' load: twelve 10 s windows of one dense step measured
// 35.8–64.3 ms at GOMAXPROCS 2 and 54.4–58.3 ms at 1. One scheduler thread
// gives up that unreliable speed-up for numbers that repeat.
const procs = 1

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func main() {
	var (
		workloadRe = flag.String("workload", ".*", "regexp a workload's whole name must match")
		seed       = flag.Uint64("seed", 1, "seed of every input: corpus, calibration batches, prompts, request order")
		seconds    = flag.Int("seconds", 10, "length of each workload's timed window")
		trace      = flag.Int("trace", 0, "1 runs the traced variant: per-layer metrics and a span file")
		outDir     = flag.String("out", filepath.Join("benchmark", "out"), "directory for runs.jsonl and trace files")
		compare    = flag.Bool("compare", false, "compare two runs.jsonl files (arguments: a b) against BENCHMARK.json's bounds")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "benchmark: -compare needs two files")
			os.Exit(2)
		}
		regressed, err := compareFiles(os.Stdout, "BENCHMARK.json", flag.Arg(0), flag.Arg(1))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchmark:", err)
			os.Exit(2)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}

	re, err := regexp.Compile("^(?:" + *workloadRe + ")$")
	if err != nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "benchmark: bad -workload, -seconds or -trace")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	parallel.SetWorkers(procs)
	opts := runOpts{seed: *seed, seconds: *seconds, traced: *trace == 1, outDir: *outDir}
	e := currentEnv()
	ran, allCorrect := 0, true
	for _, w := range workloads {
		if !re.MatchString(w.name) {
			continue
		}
		ran++
		rec, err := runWorkload(w, opts, e)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		allCorrect = allCorrect && rec.Correct
	}
	if ran == 0 {
		fmt.Fprintf(os.Stderr, "benchmark: no workload matches %q\n", *workloadRe)
		os.Exit(2)
	}
	if !allCorrect {
		os.Exit(1)
	}
}

// runWorkload runs one workload between two machine-state guards, prints
// its rows and its result line, and appends the record to runs.jsonl.
func runWorkload(w workload, opts runOpts, e env) (*record, error) {
	fmt.Printf("== %s (seed %d, %d s, trace %d)\n", w.name, opts.seed, opts.seconds, btoi(opts.traced))
	before := guardGFLOPS()
	var out *outcome
	var err error
	if w.finetune != nil {
		out, err = runFinetune(w, opts)
	} else {
		out, err = runServe(w, opts)
	}
	if err != nil {
		return nil, err
	}
	after := guardGFLOPS()

	rec := &record{
		Workload: w.name, Seed: opts.seed, Seconds: opts.seconds, Trace: btoi(opts.traced),
		result: result{
			Correct:   out.failed == 0 && len(out.problems) == 0,
			Attempted: out.attempted, Failed: out.failed,
			Metrics: map[string]value{},
		},
		Detail: map[string]value{}, Samples: map[string]int{},
		Problems: out.problems,
		Noise:    math.Abs(after-before) / before,
		Env:      e,
	}
	rec.Unstable = rec.Noise > unstableNoise

	// The result line carries the end-to-end metrics of an untraced run and
	// the per-layer metrics of a traced one; everything else is detail.
	reported := endToEnd
	if opts.traced {
		reported = perLayer
	}
	for _, d := range reported {
		r, ok := out.get(d.name)
		if !ok && !opts.traced {
			return nil, fmt.Errorf("end-to-end metric %s was not measured", d.name)
		}
		rec.Metrics[d.name] = value{r.v, d.unit} // an absent layer metric reads 0
	}
	for _, r := range out.rows {
		fmt.Printf("  %-30s %14.4f %-9s n=%d\n", r.name, r.v, r.unit, r.n)
		rec.Samples[r.name] = r.n
		if _, isMetric := rec.Metrics[r.name]; !isMetric {
			rec.Detail[r.name] = value{r.v, r.unit}
		}
	}
	label := ""
	if rec.Unstable {
		label = "  UNSTABLE"
	}
	fmt.Printf("  %-30s %14.4f %-9s before %.2f after %.2f GFLOP/s%s\n", "noise", rec.Noise, "ratio", before, after, label)
	for _, p := range out.problems {
		fmt.Printf("  FAILED CHECK: %s\n", p)
	}

	if err := appendRecord(opts.outDir, rec); err != nil {
		return nil, err
	}
	line, err := json.Marshal(rec.result)
	if err != nil {
		return nil, err
	}
	fmt.Println(string(line))
	return rec, nil
}

func appendRecord(dir string, rec *record) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	line, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(dir, "runs.jsonl"), os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
