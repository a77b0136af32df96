package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	le "longexposure"
	"longexposure/internal/nn"
	"longexposure/internal/tensor"
)

// buildDir holds what the benchmark builds and the child daemon's state;
// the root .gitignore names it.
const buildDir = ".bench_build"

const (
	svSetups        = 3 // set-ups per run; setup_s is their median
	maxHarnessShare = 0.25
	requestTimeout  = 10 * time.Second
)

// buildDaemon compiles cmd/longexpd from the checkout's source. It runs
// before the first set-up and is not part of setup_s: go's build cache
// makes its cost depend on what ran earlier, not on the code under test.
func buildDaemon() (string, error) {
	bin := filepath.Join(buildDir, "longexpd")
	if out, err := exec.Command("go", "build", "-o", bin, "./cmd/longexpd").CombinedOutput(); err != nil {
		return "", fmt.Errorf("building longexpd: %v\n%s", err, out)
	}
	return bin, nil
}

// daemon is a running child longexpd.
type daemon struct {
	cmd    *exec.Cmd
	addr   string
	url    string
	dir    string // temp dir holding the registry; removed by stop
	log    bytes.Buffer
	exited chan error
	client *http.Client
}

func (d *daemon) registryDir() string { return filepath.Join(d.dir, "registry") }

// startDaemon boots longexpd with default flags except the address, the
// registry directory and the log level — all planes on, as a user runs it —
// at GOMAXPROCS procs, and returns once /readyz answers 200.
func startDaemon(bin string) (*daemon, error) {
	dir, err := os.MkdirTemp(buildDir, "run-")
	if err != nil {
		return nil, err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	addr := l.Addr().String()
	l.Close()

	d := &daemon{
		addr: addr, url: "http://" + addr, dir: dir, exited: make(chan error, 1),
		// The timeout covers a whole exchange, reading the SSE stream included.
		client: &http.Client{Timeout: requestTimeout, Transport: &http.Transport{MaxIdleConnsPerHost: 8}},
	}
	d.cmd = exec.Command(bin, "-addr", addr, "-registry", d.registryDir(), "-log-level", "warn")
	d.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", procs))
	d.cmd.Stdout, d.cmd.Stderr = &d.log, &d.log
	if err := d.cmd.Start(); err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	go func() { d.exited <- d.cmd.Wait() }()

	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case err := <-d.exited:
			os.RemoveAll(dir)
			return nil, fmt.Errorf("longexpd exited during boot: %v\n%s", err, d.log.String())
		default:
		}
		if resp, err := d.client.Get(d.url + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return d, nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	d.stop()
	return nil, errors.New("longexpd not ready after 10 s")
}

// stop SIGTERMs the child, waits for it, and removes its registry. It
// reports a non-zero exit and a port that still accepts connections.
func (d *daemon) stop() error {
	defer os.RemoveAll(d.dir)
	d.client.CloseIdleConnections()
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an already-exited child is reported by Wait below
	var err error
	select {
	case err = <-d.exited:
	case <-time.After(15 * time.Second):
		_ = d.cmd.Process.Kill()
		err = fmt.Errorf("did not exit within 15 s of SIGTERM (killed): %v", <-d.exited)
	}
	if err != nil {
		return fmt.Errorf("longexpd: %w\n%s", err, d.log.String())
	}
	if c, err := net.DialTimeout("tcp", d.addr, time.Second); err == nil {
		c.Close()
		return fmt.Errorf("port %s still accepts connections after longexpd exited", d.addr)
	}
	return nil
}

// jobView is the part of a job's JSON the benchmark reads.
type jobView struct {
	ID       string    `json:"id"`
	Status   string    `json:"status"`
	Error    string    `json:"error"`
	Created  time.Time `json:"created"`
	Finished time.Time `json:"finished"`
	Result   *struct {
		Finetune *struct {
			AdapterID string                                                    `json:"adapter_id"`
			MeanStep  struct{ Forward, Backward, Optim, Predict time.Duration } `json:"mean_step"`
		} `json:"finetune"`
	} `json:"result"`
}

func (d *daemon) getJSON(path string, v any) error {
	resp, err := d.client.Get(d.url + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("GET %s: %s: %s", path, resp.Status, body)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// submitJob posts a fine-tune job whose adapter the serve workloads use.
func (d *daemon) submitJob(lr float64, precision string) (string, error) {
	spec := map[string]any{"kind": "finetune", "finetune": map[string]any{
		"model": jobModel, "steps": jobSteps, "batch": jobBatch, "seq": jobSeq, "blk": jobBlk,
		"seed": checkpointSeed, "lr": lr, "precision": precision,
	}}
	body, err := json.Marshal(spec)
	if err != nil {
		return "", err
	}
	resp, err := d.client.Post(d.url+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return "", fmt.Errorf("POST /v1/jobs: %s: %s", resp.Status, msg)
	}
	var j jobView
	if err := json.NewDecoder(resp.Body).Decode(&j); err != nil {
		return "", err
	}
	return j.ID, nil
}

// waitJob polls a job until it is done and returns it with its adapter.
func (d *daemon) waitJob(id string) (jobView, error) {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var j jobView
		if err := d.getJSON("/v1/jobs/"+id, &j); err != nil {
			return j, err
		}
		switch j.Status {
		case "done":
			if j.Result == nil || j.Result.Finetune == nil || j.Result.Finetune.AdapterID == "" {
				return j, fmt.Errorf("job %s finished without an adapter", id)
			}
			return j, nil
		case "failed", "cancelled":
			return j, fmt.Errorf("job %s %s: %s", id, j.Status, j.Error)
		}
		time.Sleep(10 * time.Millisecond)
	}
	return jobView{}, fmt.Errorf("job %s not done after 60 s", id)
}

// svSession is a booted daemon with its adapters published and warmed.
type svSession struct {
	d        *daemon
	jobs     []jobView
	adapters []string
}

// svSetup is everything before the first timed request: boot the daemon to
// /readyz, fine-tune and publish the adapters through POST /v1/jobs, and
// send the warm-up requests.
func svSetup(bin string, p *serveParams, gen *requestGen) (*svSession, time.Duration, error) {
	t0 := time.Now()
	d, err := startDaemon(bin)
	if err != nil {
		return nil, 0, err
	}
	s := &svSession{d: d}
	var ids []string
	for a := 0; a < p.adapters; a++ {
		// One seed, so one shared base; the learning rate tells the
		// adapters apart.
		id, err := d.submitJob(1e-3*float64(a+1), p.precision)
		if err != nil {
			d.stop()
			return nil, 0, err
		}
		ids = append(ids, id)
	}
	for _, id := range ids {
		j, err := d.waitJob(id)
		if err != nil {
			d.stop()
			return nil, 0, err
		}
		s.jobs = append(s.jobs, j)
		s.adapters = append(s.adapters, j.Result.Finetune.AdapterID)
	}
	for j := 0; j < warmupRequests; j++ {
		a, pr := gen.pick(p.clients, j, len(s.adapters)) // a client id no timed client has
		if r := d.generate(gen.body(s.adapters[a], pr, p.sparsity), nil); r.err != nil {
			d.stop()
			return nil, 0, fmt.Errorf("warm-up request: %w", r.err)
		}
	}
	return s, time.Since(t0), nil
}

// reqResult is one POST /v1/generate as the client saw it.
type reqResult struct {
	adapter, prompt int
	ttft, total     time.Duration
	gaps            []time.Duration
	tokens          []int
	traceID         string
	err             error
}

// generate sends one request and reads its SSE stream to the done frame,
// timing every token frame. With a recorder the request becomes one trace:
// serve.request → send / first_token / stream.
func (d *daemon) generate(body []byte, rec *recorder) (res reqResult) {
	t0 := time.Now()
	resp, err := d.client.Post(d.url+"/v1/generate", "application/json", bytes.NewReader(body))
	if err != nil {
		res.err = err
		return res
	}
	defer resp.Body.Close()
	tHeaders := time.Now()
	res.traceID = resp.Header.Get("X-Trace-Id")
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		res.err = fmt.Errorf("status %s: %s", resp.Status, msg)
		return res
	}
	br := bufio.NewReader(resp.Body)
	var first, last time.Time
	for {
		f, err := readSSEFrame(br)
		if err != nil {
			res.err = fmt.Errorf("stream ended after %d tokens without a done frame: %w", len(res.tokens), err)
			return res
		}
		now := time.Now()
		switch f.Event {
		case "token":
			var t struct{ Token, Index int }
			if err := json.Unmarshal(f.Data, &t); err != nil || t.Index != len(res.tokens) {
				res.err = fmt.Errorf("malformed token frame %q at position %d", f.Data, len(res.tokens))
				return res
			}
			if len(res.tokens) == 0 {
				first = now
				res.ttft = now.Sub(t0)
			} else {
				res.gaps = append(res.gaps, now.Sub(last))
			}
			last = now
			res.tokens = append(res.tokens, t.Token)
		case "done":
			var done struct {
				Tokens []int
				Reason string
			}
			switch err := json.Unmarshal(f.Data, &done); {
			case err != nil:
				res.err = fmt.Errorf("malformed done frame: %w", err)
			case done.Reason != "length" || len(res.tokens) != maxTokens:
				res.err = fmt.Errorf("short stream: %d tokens, reason %q", len(res.tokens), done.Reason)
			case !slices.Equal(done.Tokens, res.tokens):
				res.err = errors.New("done frame's tokens differ from the streamed ones")
			}
			res.total = now.Sub(t0)
			if rec != nil && res.err == nil {
				tr := rec.newTrace()
				root := rec.add(tr, 0, "serve.request", t0, now)
				rec.add(tr, root, "send", t0, tHeaders)
				rec.add(tr, root, "first_token", tHeaders, first)
				rec.add(tr, root, "stream", first, now)
			}
			return res
		case "error":
			res.err = fmt.Errorf("error frame: %s", f.Data)
			return res
		}
	}
}

// svWindow is one timed window of closed-loop traffic.
type svWindow struct {
	results  []reqResult
	wall     time.Duration
	harness  time.Duration // CPU the benchmark itself used
	childCPU time.Duration // CPU the daemon used
	// Over the successful requests, in ms: time to first token, request
	// time, every single gap between token frames, and each stream's mean
	// gap (request time ÷ frames: the wait for the first frame is a gap).
	ttft, total, gap, streamGap []float64
	tokens                      int
}

// window runs p.clients closed-loop clients for d: each sends its next
// request only after the previous reply completed. Requests in flight when
// d ends are finished and counted. firstJ offsets the request sequence so
// two windows of one run draw different requests.
func (s *svSession) window(d time.Duration, p *serveParams, gen *requestGen, firstJ int, rec *recorder) svWindow {
	var w svWindow
	perClient := make([][]reqResult, p.clients)
	cpu0, child0, start := cpuTime(), procCPU(s.d.cmd.Process.Pid), time.Now()
	var wg sync.WaitGroup
	for c := 0; c < p.clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := firstJ; time.Since(start) < d; j++ {
				a, pr := gen.pick(c, j, len(s.adapters))
				r := s.d.generate(gen.body(s.adapters[a], pr, p.sparsity), rec)
				r.adapter, r.prompt = a, pr
				perClient[c] = append(perClient[c], r)
			}
		}()
	}
	wg.Wait()
	w.wall, w.harness, w.childCPU = time.Since(start), cpuTime()-cpu0, procCPU(s.d.cmd.Process.Pid)-child0
	for _, rs := range perClient {
		w.results = append(w.results, rs...)
	}
	for _, r := range w.results {
		if r.err != nil {
			continue
		}
		w.tokens += len(r.tokens)
		w.ttft = append(w.ttft, ms(r.ttft))
		w.total = append(w.total, ms(r.total))
		for _, g := range r.gaps {
			w.gap = append(w.gap, ms(g))
		}
		w.streamGap = append(w.streamGap, ms(r.total)/float64(len(r.tokens)))
	}
	return w
}

func (w *svWindow) merge(o svWindow) {
	w.results = append(w.results, o.results...)
	w.wall, w.harness, w.childCPU = w.wall+o.wall, w.harness+o.harness, w.childCPU+o.childCPU
	w.ttft, w.total = append(w.ttft, o.ttft...), append(w.total, o.total...)
	w.gap, w.streamGap = append(w.gap, o.gap...), append(w.streamGap, o.streamGap...)
	w.tokens += o.tokens
}

func (w svWindow) tokensPerS() float64 { return float64(w.tokens) / w.wall.Seconds() }

// references computes, in process, the greedy output every used (adapter,
// prompt) pair must produce: GenerateCachedCfg on BuildBase of the
// artifact's base description plus the compiled adapter. The repo pins the
// daemon's dense and int8 decode bit-identical to it.
func references(regDir string, adapterIDs []string, gen *requestGen, used map[[2]int]bool) (map[[2]int][]int, error) {
	reg, err := le.OpenRegistry(regDir)
	if err != nil {
		return nil, err
	}
	refs := map[[2]int][]int{}
	bases := map[string]*le.Model{}
	ws := tensor.NewArena()
	for a, id := range adapterIDs {
		man, params, err := reg.Load(id)
		if err != nil {
			return nil, err
		}
		base := bases[man.BaseHash]
		if base == nil {
			if base, err = le.BuildBase(man.Base); err != nil {
				return nil, err
			}
			bases[man.BaseHash] = base
		}
		ad, err := le.CompileAdapter(man.Method, man.Rank, man.Alpha, base.Cfg, params)
		if err != nil {
			return nil, err
		}
		cache := base.NewKVCache()
		for pr := range gen.pool {
			if !used[[2]int{a, pr}] {
				continue
			}
			cache.Reset()
			refs[[2]int{a, pr}] = base.GenerateCachedCfg(gen.pool[pr], le.GenerateConfig{MaxTokens: maxTokens},
				nn.DecodeSession{Adapter: ad, Cache: cache, WS: ws})
		}
	}
	return refs, nil
}

// check counts the window's failed operations: non-200, error frame, short
// or malformed stream, timeout, and — on the dense and int8 workloads — a
// stream whose tokens differ from the reference. It returns how many token
// positions match the reference, of how many.
func check(out *outcome, w svWindow, refs map[[2]int][]int, exact bool) (match, positions int) {
	for _, r := range w.results {
		out.attempted++
		if r.err != nil {
			out.failed++
			if out.failed <= 3 {
				fmt.Printf("  failed request: %v\n", r.err)
			}
			continue
		}
		ref := refs[[2]int{r.adapter, r.prompt}]
		same := 0
		for i, t := range r.tokens {
			if i < len(ref) && ref[i] == t {
				same++
			}
		}
		match += same
		positions += len(r.tokens)
		if exact && same != len(r.tokens) {
			out.failed++
			if out.failed <= 3 {
				fmt.Printf("  wrong output: adapter %d prompt %d: %d of %d tokens match the reference\n", r.adapter, r.prompt, same, len(r.tokens))
			}
		}
	}
	return match, positions
}

func runServe(w workload, opts runOpts) (*outcome, error) {
	p := w.serve
	out := &outcome{}
	goroutines := runtime.NumGoroutine()
	bin, err := buildDaemon()
	if err != nil {
		return nil, err
	}
	gen := newRequestGen(opts.seed, sim().Config.Vocab)

	var sess *svSession
	var setups []float64
	for i := 0; i < svSetups; i++ {
		if sess != nil {
			if err := sess.d.stop(); err != nil {
				out.problemf("teardown: %v", err)
			}
		}
		var setup time.Duration
		if sess, setup, err = svSetup(bin, p, gen); err != nil {
			return nil, err
		}
		setups = append(setups, setup.Seconds())
	}
	defer func() {
		if sess != nil { // an error return below: still stop the child
			sess.d.stop()
		}
	}()
	out.add("setup_s", median(setups), "s", len(setups))

	// Each window draws its own stretch of the request sequence.
	const stretch = 1 << 16
	var win, traced svWindow
	var rec *recorder
	if opts.traced {
		rec = newRecorder()
	}
	n, d := opts.windows()
	for i := 0; i < n; i++ {
		win.merge(sess.window(d, p, gen, 2*i*stretch, nil))
		if opts.traced {
			traced.merge(sess.window(d, p, gen, (2*i+1)*stretch, rec))
		}
	}
	if len(win.ttft) == 0 || (opts.traced && len(traced.ttft) == 0) {
		return nil, fmt.Errorf("no request of a window succeeded; the first failed with: %v", append(win.results, traced.results...)[0].err)
	}
	out.add("first_ms", median(win.ttft), "ms", len(win.ttft))
	out.add("gap_ms", median(win.streamGap), "ms", len(win.streamGap))
	out.add("tokens_per_s", win.tokensPerS(), "tokens/s", win.tokens)
	out.add("req_ms", median(win.total), "ms", len(win.total))
	tailRow(out, "first", win.ttft)
	tailRow(out, "gap", win.gap)
	tailRow(out, "req", win.total)
	share := win.harness.Seconds() / win.wall.Seconds()
	out.add("harness_cpu_share", share, "cores", 1)
	if share > maxHarnessShare {
		out.problemf("the harness used %.2f of one core, more than %.2f: client-side time is in the latencies", share, maxHarnessShare)
	}
	if opts.traced {
		sess.tracedRows(out, win, traced)
	}

	// Correctness, after the timed windows so it costs them nothing. Sparse
	// decode may legitimately differ from the dense reference; its requests
	// fail only on a malformed stream.
	win.merge(traced)
	used := map[[2]int]bool{}
	for _, r := range win.results {
		used[[2]int{r.adapter, r.prompt}] = true
	}
	refs, err := references(sess.d.registryDir(), sess.adapters, gen, used)
	if err != nil {
		return nil, fmt.Errorf("reference outputs: %w", err)
	}
	exact := p.sparsity == ""
	match, positions := check(out, win, refs, exact)
	if !exact && positions > 0 {
		out.add("token_match_share", float64(match)/float64(positions), "ratio", positions)
	}

	err = sess.d.stop()
	sess = nil
	if err != nil {
		out.problemf("teardown: %v", err)
	}
	if left := waitGoroutines(goroutines); left > 0 {
		out.problemf("%d goroutines left after teardown", left)
	}

	if opts.traced {
		// The probes run once the child is gone, so nothing competes.
		if err := finishTrace(out, rec, w.name, shape{sim(), jobBlk, jobBatch, jobSeq}, opts); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// tracedRows adds what only the traced run reports about the daemon: the
// tracing overhead, the child's CPU and memory, the adapters' fine-tune jobs
// (part of set-up; the phase times are the daemon's own report) and the
// engine's view of the traced requests.
func (s *svSession) tracedRows(out *outcome, win, traced svWindow) {
	out.add("trace_overhead.first_ms", median(traced.ttft)/median(win.ttft), "ratio", len(traced.ttft))
	out.add("trace_overhead.gap_ms", median(traced.streamGap)/median(win.streamGap), "ratio", len(traced.streamGap))
	out.add("trace_overhead.tokens_per_s", traced.tokensPerS()/win.tokensPerS(), "ratio", traced.tokens)
	out.add("proc.cpu_ms_per_token", ms(traced.childCPU)/float64(traced.tokens), "ms", traced.tokens)
	out.add("proc.rss_mb", rssMB(strconv.Itoa(s.d.cmd.Process.Pid)), "MB", 1)
	var jobS float64
	for _, j := range s.jobs {
		jobS += j.Finished.Sub(j.Created).Seconds()
	}
	out.add("jobs.finetune_s", jobS, "s", len(s.jobs))
	step := s.jobs[0].Result.Finetune.MeanStep
	out.add("nn.forward_ms", ms(step.Forward), "ms", jobSteps)
	out.add("predictor.plan_ms", ms(step.Predict), "ms", jobSteps)
	out.add("nn.backward_ms", ms(step.Backward), "ms", jobSteps)
	out.add("peft.optim_ms", ms(step.Optim), "ms", jobSteps)
	if err := s.eventRows(out, traced); err != nil {
		fmt.Printf("  /debug/events unavailable, infer.* rows omitted: %v\n", err)
	}
}

// eventRows reads the daemon's wide events for the window's requests: the
// engine's own split of each request into queue wait, prefill and decode,
// and what the client saw on top of the engine's total (HTTP, SSE framing,
// the observability planes).
func (s *svSession) eventRows(out *outcome, w svWindow) error {
	var body struct {
		Events []struct {
			TraceID     string `json:"trace_id"`
			QueueWaitNs int64  `json:"queue_wait_ns"`
			PrefillNs   int64  `json:"prefill_ns"`
			DecodeNs    int64  `json:"decode_ns"`
			TotalNs     int64  `json:"total_ns"`
		} `json:"events"`
	}
	if err := s.d.getJSON("/debug/events?kind=generate", &body); err != nil {
		return err
	}
	clientTotal := map[string]time.Duration{}
	for _, r := range w.results {
		if r.err == nil && r.traceID != "" {
			clientTotal[r.traceID] = r.total
		}
	}
	var queue, prefill, decode, overhead []float64
	for _, e := range body.Events {
		total, ok := clientTotal[e.TraceID]
		if !ok {
			continue
		}
		queue = append(queue, float64(e.QueueWaitNs)/1e6)
		prefill = append(prefill, float64(e.PrefillNs)/1e6)
		decode = append(decode, float64(e.DecodeNs)/1e6)
		overhead = append(overhead, ms(total)-float64(e.TotalNs)/1e6)
	}
	if len(queue) == 0 {
		return errors.New("no event matches a request of the window")
	}
	out.add("infer.queue_wait_ms", mean(queue), "ms", len(queue))
	out.add("infer.prefill_ms", mean(prefill), "ms", len(prefill))
	out.add("infer.decode_ms", mean(decode), "ms", len(decode))
	out.add("serve.overhead_ms", mean(overhead), "ms", len(overhead))
	return nil
}

// waitGoroutines gives the HTTP client's connection goroutines a moment to
// end and returns how many goroutines beyond base are still running.
func waitGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) && runtime.NumGoroutine() > base {
		time.Sleep(10 * time.Millisecond)
	}
	return max(0, runtime.NumGoroutine()-base)
}

// procCPU is a process's user+system CPU time from /proc/<pid>/stat; 0
// where /proc is not available.
func procCPU(pid int) time.Duration {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0
	}
	// Fields after the parenthesised command name; utime and stime are the
	// 14th and 15th of the whole line, in clock ticks of 1/100 s.
	_, rest, ok := strings.Cut(string(data), ") ")
	fields := strings.Fields(rest)
	if !ok || len(fields) < 13 {
		return 0
	}
	utime, _ := strconv.ParseInt(fields[11], 10, 64)
	stime, _ := strconv.ParseInt(fields[12], 10, 64)
	return time.Duration(utime+stime) * 10 * time.Millisecond
}

// rssMB is a process's peak resident set from /proc/<pid>/status ("self"
// for this process); 0 where /proc is not available.
func rssMB(pid string) float64 {
	data, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}
