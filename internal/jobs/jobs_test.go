package jobs

import (
	"container/heap"
	"context"
	"errors"
	"strings"
	"testing"
	"time"
)

// quickFinetune is a spec small enough that a job finishes in well under a
// second on CPU. Distinct seeds keep specs out of each other's cache line.
func quickFinetune(seed uint64) Spec {
	sparse := false
	return Spec{Kind: KindFinetune, Finetune: &FinetuneSpec{
		Sparse: &sparse, Steps: 2, Epochs: 1, Batch: 1, Seq: 12, Seed: seed,
	}}
}

// slowFinetune runs enough steps that tests can observe and cancel it
// mid-run.
func slowFinetune(seed uint64) Spec {
	sparse := false
	return Spec{Kind: KindFinetune, Finetune: &FinetuneSpec{
		Sparse: &sparse, Steps: 4, Epochs: 500, Batch: 1, Seq: 12, Seed: seed,
	}}
}

func waitTerminal(t *testing.T, s *Store, id string) Job {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		j, ok := s.Get(id)
		if !ok {
			t.Fatalf("job %s disappeared", id)
		}
		if j.Status.Terminal() {
			return j
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s did not reach a terminal status", id)
	return Job{}
}

func shutdown(t *testing.T, s *Store) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

func TestSpecHashDeterministicAndDefaultInsensitive(t *testing.T) {
	sparse := true
	a := Spec{Kind: KindFinetune, Finetune: &FinetuneSpec{}}
	b := Spec{Kind: KindFinetune, Finetune: &FinetuneSpec{
		Model: "sim-small", Activation: "relu", Method: "lora", Sparse: &sparse,
		Epochs: 1, Steps: 4, Batch: 2, Seq: 32, Blk: 8, LR: 1e-3, Seed: 1, PredictorEpochs: 6,
	}}
	if a.Hash() != b.Hash() {
		t.Errorf("explicit defaults changed the hash: %s vs %s", a.Hash(), b.Hash())
	}
	// Priority must not affect identity.
	c := a
	c.Priority = 9
	if a.Hash() != c.Hash() {
		t.Errorf("priority changed the hash")
	}
	d := Spec{Kind: KindFinetune, Finetune: &FinetuneSpec{Seed: 7}}
	if a.Hash() == d.Hash() {
		t.Errorf("different seeds share a hash")
	}
	// Method parsing is case-insensitive, so hashing must be too.
	e := Spec{Kind: KindFinetune, Finetune: &FinetuneSpec{Method: "LoRA"}}
	if a.Hash() != e.Hash() {
		t.Errorf("method casing changed the hash: %s vs %s", a.Hash(), e.Hash())
	}
}

func TestValidate(t *testing.T) {
	bad := []Spec{
		{},
		{Kind: "mystery"},
		{Kind: KindFinetune},
		{Kind: KindExperiment},
		{Kind: KindExperiment, Experiment: &ExperimentSpec{ID: "nope"}},
		{Kind: KindFinetune, Finetune: &FinetuneSpec{Model: "OPT-9000B"}},
		{Kind: KindFinetune, Finetune: &FinetuneSpec{Method: "galore"}},
		{Kind: KindFinetune, Finetune: &FinetuneSpec{Activation: "swish"}},
		{Kind: KindFinetune, Finetune: &FinetuneSpec{Blk: -4}},
		{Kind: KindFinetune, Finetune: &FinetuneSpec{LR: -1}},
		{Kind: KindFinetune, Finetune: &FinetuneSpec{PredictorEpochs: -2}},
		{Kind: KindFinetune, Finetune: &FinetuneSpec{}, Experiment: &ExperimentSpec{ID: "fig4"}},
	}
	for i, spec := range bad {
		if err := spec.Validate(); err == nil {
			t.Errorf("spec %d unexpectedly valid: %+v", i, spec)
		}
	}
	good := []Spec{
		{Kind: KindFinetune, Finetune: &FinetuneSpec{}},
		{Kind: KindFinetune, Finetune: &FinetuneSpec{Model: "OPT-1.3B", Method: "ptuning"}},
		{Kind: KindExperiment, Experiment: &ExperimentSpec{ID: "fig4"}},
	}
	for i, spec := range good {
		if err := spec.Validate(); err != nil {
			t.Errorf("spec %d invalid: %v", i, err)
		}
	}
}

func TestConcurrentSubmitsSaturatePoolButNeverExceedIt(t *testing.T) {
	const workers, n = 2, 6
	s := NewStore(Config{Workers: workers})
	defer shutdown(t, s)

	ids := make([]string, 0, n)
	for i := 0; i < n; i++ {
		j, err := s.Submit(quickFinetune(uint64(100 + i)))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, j.ID)
	}

	maxRunning := 0
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := s.Stats()
		if st.Running > maxRunning {
			maxRunning = st.Running
		}
		if st.Done == n {
			break
		}
		time.Sleep(time.Millisecond)
	}
	for _, id := range ids {
		if j := waitTerminal(t, s, id); j.Status != StatusDone {
			t.Errorf("job %s: status %s (error %q)", id, j.Status, j.Error)
		}
	}
	if maxRunning > workers {
		t.Errorf("observed %d concurrent jobs, pool is %d", maxRunning, workers)
	}
	if maxRunning == 0 {
		// Every job was verified Done above, so work definitely ran; on
		// fast machines the 1ms sampling loop can miss every running
		// window, which is a sampling artifact, not a scheduler bug.
		t.Log("sampling never caught a job mid-run; completion already verified")
	}
}

func TestPriorityOrdersQueueFIFOWithinLevel(t *testing.T) {
	s := NewStore(Config{Workers: 1})
	defer shutdown(t, s)

	// Occupy the single worker so subsequent submissions stay queued.
	blocker, err := s.Submit(slowFinetune(1))
	if err != nil {
		t.Fatal(err)
	}
	// Wait until it actually runs (left the queue).
	for {
		if j, _ := s.Get(blocker.ID); j.Status == StatusRunning {
			break
		}
		time.Sleep(time.Millisecond)
	}

	submit := func(prio int, seed uint64) string {
		spec := quickFinetune(seed)
		spec.Priority = prio
		j, err := s.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		return j.ID
	}
	lo1 := submit(0, 11)
	hi := submit(5, 12)
	lo2 := submit(0, 13)
	top := submit(9, 14)

	want := []string{top, hi, lo1, lo2}
	got := s.pendingIDs()
	if len(got) != len(want) {
		t.Fatalf("pending %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("pending %v, want %v", got, want)
		}
	}

	s.Cancel(blocker.ID)
	for _, id := range append([]string{blocker.ID}, want...) {
		waitTerminal(t, s, id)
	}
}

func TestMidRunCancellationLeavesStatusCancelled(t *testing.T) {
	s := NewStore(Config{Workers: 1})
	defer shutdown(t, s)

	j, err := s.Submit(slowFinetune(2))
	if err != nil {
		t.Fatal(err)
	}
	ch, cancel, err := s.Subscribe(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	defer cancel()

	// Wait for the first per-step progress event: the job is mid-run.
	sawProgress := false
	for e := range ch {
		if e.Kind == EventProgress && e.Progress != nil {
			sawProgress = true
			if _, ok := s.Cancel(j.ID); !ok {
				t.Fatalf("cancel: job not found")
			}
		}
		if e.Kind.Terminal() {
			if e.Kind != EventCancelled {
				t.Fatalf("terminal event %s, want %s", e.Kind, EventCancelled)
			}
			break
		}
	}
	if !sawProgress {
		t.Fatalf("stream ended without a progress event")
	}

	final := waitTerminal(t, s, j.ID)
	if final.Status != StatusCancelled {
		t.Fatalf("status %s, want %s", final.Status, StatusCancelled)
	}
	if final.Result != nil {
		t.Errorf("cancelled job carries a result")
	}
	// A cancelled run must not poison the cache: resubmitting runs afresh.
	re, err := s.Submit(slowFinetune(2))
	if err != nil {
		t.Fatal(err)
	}
	if re.CacheHit {
		t.Errorf("cancelled job populated the result cache")
	}
	s.Cancel(re.ID)
	waitTerminal(t, s, re.ID)
}

func TestCancelQueuedJob(t *testing.T) {
	s := NewStore(Config{Workers: 1})
	defer shutdown(t, s)

	blocker, _ := s.Submit(slowFinetune(3))
	queued, _ := s.Submit(quickFinetune(31))
	j, ok := s.Cancel(queued.ID)
	if !ok || j.Status != StatusCancelled {
		t.Fatalf("queued cancel: ok=%v status=%s", ok, j.Status)
	}
	s.Cancel(blocker.ID)
	waitTerminal(t, s, blocker.ID)
	// The cancelled-queued job must not run: its log is queued+cancelled.
	evs := s.Events(queued.ID)
	if len(evs) != 2 || evs[0].Kind != EventQueued || evs[1].Kind != EventCancelled {
		t.Fatalf("queued-cancelled event log: %+v", evs)
	}
}

func TestCacheHitServesStoredResultWithoutRerunning(t *testing.T) {
	s := NewStore(Config{Workers: 1})
	defer shutdown(t, s)

	spec := quickFinetune(42)
	first, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, s, first.ID)
	if done.Status != StatusDone {
		t.Fatalf("first run: %s (%s)", done.Status, done.Error)
	}
	if done.CacheHit {
		t.Fatalf("first run flagged as cache hit")
	}
	if done.Result == nil || done.Result.Finetune == nil {
		t.Fatalf("first run has no finetune result")
	}

	second, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Fatalf("identical resubmission missed the cache")
	}
	if second.Status != StatusDone {
		t.Fatalf("cache-hit job status %s, want %s", second.Status, StatusDone)
	}
	if second.Result != done.Result {
		t.Errorf("cache hit did not return the stored result pointer")
	}
	// Served instantly: no started event, just queued+done.
	evs := s.Events(second.ID)
	if len(evs) != 2 || evs[1].Kind != EventDone || !strings.Contains(evs[1].Message, "cache hit") {
		t.Fatalf("cache-hit event log: %+v", evs)
	}

	// A different spec must not hit.
	other, err := s.Submit(quickFinetune(43))
	if err != nil {
		t.Fatal(err)
	}
	if other.CacheHit {
		t.Errorf("different spec hit the cache")
	}
	waitTerminal(t, s, other.ID)
}

func TestCacheEviction(t *testing.T) {
	c := newResultCache(2)
	r1, r2, r3 := &Result{}, &Result{}, &Result{}
	c.put("a", r1)
	c.put("b", r2)
	if _, ok := c.get("a"); !ok { // touch: a is now most recent
		t.Fatal("a missing")
	}
	c.put("c", r3) // evicts b
	if _, ok := c.get("b"); ok {
		t.Errorf("b survived eviction")
	}
	if got, ok := c.get("a"); !ok || got != r1 {
		t.Errorf("a lost or rebound")
	}
	if c.len() != 2 {
		t.Errorf("len %d, want 2", c.len())
	}
}

func TestSubscribersSeeTerminalEventExactlyOnce(t *testing.T) {
	s := NewStore(Config{Workers: 1})
	defer shutdown(t, s)

	j, err := s.Submit(quickFinetune(7))
	if err != nil {
		t.Fatal(err)
	}
	subscribe := func() <-chan Event {
		ch, _, err := s.Subscribe(j.ID)
		if err != nil {
			t.Fatal(err)
		}
		return ch
	}
	chans := []<-chan Event{subscribe(), subscribe()}
	waitTerminal(t, s, j.ID)
	// Late subscriber: job already terminal, gets a pure replay.
	chans = append(chans, subscribe())

	for i, ch := range chans {
		terminals, progress := 0, 0
		lastSeq := -1
		for e := range ch { // channel must close after the terminal event
			if e.Seq != lastSeq+1 {
				t.Errorf("subscriber %d: event seq %d after %d", i, e.Seq, lastSeq)
			}
			lastSeq = e.Seq
			if e.Kind.Terminal() {
				terminals++
			}
			if e.Kind == EventProgress {
				progress++
			}
		}
		if terminals != 1 {
			t.Errorf("subscriber %d: %d terminal events, want exactly 1", i, terminals)
		}
		if progress == 0 {
			t.Errorf("subscriber %d: no progress events", i)
		}
	}
}

func TestAbandonedSubscriberDoesNotBlockJob(t *testing.T) {
	s := NewStore(Config{Workers: 1})
	defer shutdown(t, s)

	j, err := s.Submit(Spec{Kind: KindFinetune, Finetune: &FinetuneSpec{
		Sparse: func() *bool { b := false; return &b }(),
		Steps:  4, Epochs: 8, Batch: 1, Seq: 12, Seed: 55,
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Subscribe and walk away without reading: the per-step publisher must
	// not block on us, and unsubscribing must release the pump.
	_, cancel, err := s.Subscribe(j.ID)
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, s, j.ID)
	if done.Status != StatusDone {
		t.Fatalf("job finished %s (%s)", done.Status, done.Error)
	}
	cancel()
	cancel() // idempotent
}

func TestExperimentJobRunsAndCaches(t *testing.T) {
	s := NewStore(Config{Workers: 1})
	defer shutdown(t, s)

	spec := Spec{Kind: KindExperiment, Experiment: &ExperimentSpec{ID: "table2"}}
	j, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	done := waitTerminal(t, s, j.ID)
	if done.Status != StatusDone {
		t.Fatalf("experiment job: %s (%s)", done.Status, done.Error)
	}
	r := done.Result.Experiment
	if r == nil || r.ID != "table2" || !strings.Contains(r.Markdown, "table2") {
		t.Fatalf("experiment result: %+v", done.Result)
	}
	again, err := s.Submit(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !again.CacheHit {
		t.Errorf("experiment resubmission missed the cache")
	}
}

func TestRunnersObserveCancelledContextBeforeSetup(t *testing.T) {
	s := NewStore(Config{Workers: 1})
	defer shutdown(t, s)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	sparse := true
	ft := &Job{ID: "ft", ctx: ctx, Spec: Spec{Kind: KindFinetune,
		Finetune: &FinetuneSpec{Sparse: &sparse}}}
	if _, err := s.execute(ft, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("finetune setup ignored cancelled ctx: %v", err)
	}
	quick := true
	ex := &Job{ID: "ex", ctx: ctx, Spec: Spec{Kind: KindExperiment,
		Experiment: &ExperimentSpec{ID: "table1", Quick: &quick}}}
	if _, err := s.execute(ex, nil); !errors.Is(err, context.Canceled) {
		t.Errorf("experiment runner ignored cancelled ctx: %v", err)
	}
}

func TestExecutePanicFailsJobNotProcess(t *testing.T) {
	s := NewStore(Config{Workers: 1})
	defer shutdown(t, s)
	// A kind/payload mismatch that bypassed validation must surface as a
	// failed job, not kill the worker goroutine (and with it the daemon).
	j := &Job{ID: "crafted", Spec: Spec{Kind: KindFinetune}} // nil Finetune → panic inside
	res, err := s.execute(j, nil)
	if res != nil || err == nil || !strings.Contains(err.Error(), "panicked") {
		t.Fatalf("execute: res=%v err=%v, want recovered panic error", res, err)
	}
}

func TestEvictionBoundsRetainedJobs(t *testing.T) {
	s := NewStore(Config{Workers: 1, MaxJobs: 3})
	defer shutdown(t, s)
	var ids []string
	for i := 0; i < 5; i++ {
		j, err := s.Submit(quickFinetune(uint64(700 + i)))
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, s, j.ID)
		ids = append(ids, j.ID)
	}
	if n := len(s.List("")); n > 3 {
		t.Errorf("retained %d jobs, cap is 3", n)
	}
	// The oldest terminal jobs (and their event logs) are gone…
	if _, ok := s.Get(ids[0]); ok {
		t.Errorf("oldest job survived eviction")
	}
	if evs := s.Events(ids[0]); len(evs) != 0 {
		t.Errorf("evicted job kept %d events", len(evs))
	}
	// …the newest survives.
	if _, ok := s.Get(ids[4]); !ok {
		t.Errorf("newest job evicted")
	}
}

func TestShutdownDrainsRunningJobs(t *testing.T) {
	s := NewStore(Config{Workers: 2})
	var ids []string
	for i := 0; i < 3; i++ {
		j, err := s.Submit(quickFinetune(uint64(900 + i)))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, j.ID)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	for _, id := range ids {
		j, _ := s.Get(id)
		if j.Status != StatusDone {
			t.Errorf("job %s not drained: %s (%s)", id, j.Status, j.Error)
		}
	}
	if _, err := s.Submit(quickFinetune(999)); err != ErrClosed {
		t.Errorf("submit after shutdown: %v, want ErrClosed", err)
	}
}

// pendingIDs is a test helper: ids currently pending, in pop order.
func (s *Store) pendingIDs() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	tmp := make(jobHeap, len(s.pending))
	copy(tmp, s.pending)
	ids := make([]string, 0, len(tmp))
	for tmp.Len() > 0 {
		j := heap.Pop(&tmp).(*Job)
		if j.Status == StatusQueued {
			ids = append(ids, j.ID)
		}
	}
	return ids
}
