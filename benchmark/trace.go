package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed interval at a layer boundary. Times are nanoseconds
// since the recorder was created; Parent 0 marks the root of a trace.
type span struct {
	ID     int    `json:"id"`
	Trace  int    `json:"trace"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// recorder keeps spans in memory until the run ends. A nil recorder is the
// untraced run: every method is a no-op, so the measured code path differs
// from the traced one only by these calls.
type recorder struct {
	t0 time.Time

	mu     sync.Mutex
	spans  []span
	traces int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

// newTrace returns the identifier the spans of one step or request share.
func (r *recorder) newTrace() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.traces++
	return r.traces
}

// add records a finished span and returns its id for children to name.
func (r *recorder) add(trace, parent int, name string, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	id := len(r.spans) + 1
	r.spans = append(r.spans, span{
		ID: id, Trace: trace, Parent: parent, Name: name,
		Start: start.Sub(r.t0).Nanoseconds(), End: end.Sub(r.t0).Nanoseconds(),
	})
	return id
}

// setSelfTimes fills each span's Self: its duration minus the part of its
// interval that its child spans cover (overlapping children count once).
func setSelfTimes(spans []span) {
	children := map[int][]int{}
	for i, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	for i := range spans {
		s := &spans[i]
		kids := children[s.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), s.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		s.Self = s.End - s.Start - covered
	}
}

// selfByName sums self time per span name, in milliseconds.
func selfByName(spans []span) map[string]float64 {
	out := map[string]float64{}
	for _, s := range spans {
		out[s.Name] += float64(s.Self) / 1e6
	}
	return out
}

// write computes self times and stores the spans as dir/trace-<workload>.json.
func (r *recorder) write(dir, workload string, seed uint64) (string, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	setSelfTimes(r.spans)
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans})
	if err != nil {
		return "", err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace-"+workload+".json")
	return path, os.WriteFile(path, data, 0o644)
}
