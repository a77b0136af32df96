package slo

import (
	"fmt"
	"math"

	"longexposure/internal/obs"
)

// source feeds one objective: cumulative good/total event counts read
// from live registry instruments. sample is called once per evaluation
// tick, under the engine lock, and must not allocate at steady state —
// hence the precomputed label keys and Peek lookups below. ok is false
// until the instrumented code path has run at least once (a route never
// hit has no histogram child yet); the engine treats that as "no data"
// rather than an error.
type source interface {
	sample() (good, total float64, ok bool)
}

// newSource binds an objective to its instruments on reg.
func newSource(reg *obs.Registry, o Objective) (source, error) {
	switch o.Kind {
	case KindLatency:
		return &latencySource{reg: reg, key: obs.LabelKey(o.Route), threshold: o.Threshold}, nil
	case KindAvailability:
		s := &availabilitySource{reg: reg}
		for i, class := range [5]string{"1xx", "2xx", "3xx", "4xx", "5xx"} {
			s.keys[i] = obs.LabelKey(o.Route, class)
		}
		return s, nil
	case KindQueueWait:
		return &queueWaitSource{
			reg:       reg,
			waitKey:   obs.LabelKey(o.Route),
			qfKey:     obs.LabelKey(o.Route, "queue_full"),
			toKey:     obs.LabelKey(o.Route, "timeout"),
			threshold: o.Threshold,
		}, nil
	case KindJobFailure:
		return &jobFailureSource{
			reg:     reg,
			doneKey: obs.LabelKey("done"),
			failKey: obs.LabelKey("failed"),
		}, nil
	case KindDensityDrift:
		family := "lexp_sparse_serving_mlp_density"
		if o.Signal == "attn" {
			family = "lexp_sparse_serving_attn_density"
		}
		return &densityDriftSource{reg: reg, family: family, expected: o.Expected, tolerance: o.Threshold}, nil
	default:
		return nil, fmt.Errorf("slo: no source for kind %q", o.Kind)
	}
}

// latencySource reads lexp_http_request_seconds{route}: good events are
// requests bucketized at or under the threshold.
type latencySource struct {
	reg       *obs.Registry
	key       string
	threshold float64
	h         *obs.Histogram // resolved lazily, then cached
}

func (s *latencySource) sample() (float64, float64, bool) {
	if s.h == nil {
		h, ok := s.reg.PeekHistogramKey("lexp_http_request_seconds", s.key)
		if !ok {
			return 0, 0, false
		}
		s.h = h
	}
	return float64(s.h.CountAtMost(s.threshold)), float64(s.h.Count()), true
}

// availabilitySource reads lexp_http_requests_total{route,code}: bad
// events are 5xx responses. Status-class children appear as each class
// is first served, so absent children are re-peeked every tick (an
// allocation-free map lookup) instead of cached as permanently missing.
type availabilitySource struct {
	reg      *obs.Registry
	keys     [5]string // 1xx..5xx
	counters [5]*obs.Counter
}

func (s *availabilitySource) sample() (float64, float64, bool) {
	var total, bad float64
	any := false
	for i := range s.keys {
		if s.counters[i] == nil {
			c, ok := s.reg.PeekCounterKey("lexp_http_requests_total", s.keys[i])
			if !ok {
				continue
			}
			s.counters[i] = c
		}
		v := s.counters[i].Value()
		total += v
		if i == 4 { // 5xx
			bad += v
		}
		any = true
	}
	if !any {
		return 0, 0, false
	}
	return total - bad, total, true
}

// queueWaitSource reads the admission plane for one endpoint: admitted
// requests that waited at most threshold seconds
// (lexp_limit_wait_seconds{endpoint}) are good; requests shed for
// queue_full or timeout (lexp_limit_shed_total) are bad events that
// never reached the wait histogram at all.
type queueWaitSource struct {
	reg                   *obs.Registry
	waitKey, qfKey, toKey string
	threshold             float64
	h                     *obs.Histogram
	qf, to                *obs.Counter
}

func (s *queueWaitSource) sample() (float64, float64, bool) {
	if s.h == nil {
		h, ok := s.reg.PeekHistogramKey("lexp_limit_wait_seconds", s.waitKey)
		if !ok {
			return 0, 0, false
		}
		s.h = h
	}
	if s.qf == nil {
		s.qf, _ = s.reg.PeekCounterKey("lexp_limit_shed_total", s.qfKey)
	}
	if s.to == nil {
		s.to, _ = s.reg.PeekCounterKey("lexp_limit_shed_total", s.toKey)
	}
	// A shed reason nobody has hit yet is a nil counter reading 0.
	good := float64(s.h.CountAtMost(s.threshold))
	total := float64(s.h.Count()) + s.qf.Value() + s.to.Value()
	return good, total, true
}

// jobFailureSource reads lexp_jobs_completed_total{status}: done jobs
// are good, failed jobs are bad; cancellations are a user action and
// count for neither side.
type jobFailureSource struct {
	reg              *obs.Registry
	doneKey, failKey string
	done, failed     *obs.Counter
}

func (s *jobFailureSource) sample() (float64, float64, bool) {
	if s.done == nil {
		s.done, _ = s.reg.PeekCounterKey("lexp_jobs_completed_total", s.doneKey)
	}
	if s.failed == nil {
		s.failed, _ = s.reg.PeekCounterKey("lexp_jobs_completed_total", s.failKey)
	}
	if s.done == nil && s.failed == nil {
		return 0, 0, false
	}
	good, bad := s.done.Value(), s.failed.Value() // a nil counter reads 0
	return good, good + bad, true
}

// densityDriftSource folds the live per-layer serving-density gauges
// into a per-tick pass/fail: a tick whose mean density deviates from
// the expected plan density by more than the tolerance is one bad
// event. Unlike the counter-backed sources this one synthesizes its own
// cumulative series, because gauges have no history — the ring diffing
// then works identically.
type densityDriftSource struct {
	reg       *obs.Registry
	family    string
	expected  float64
	tolerance float64

	ticks, bad float64
}

func (s *densityDriftSource) sample() (float64, float64, bool) {
	sum, n, ok := s.reg.SumValues(s.family)
	if !ok || n == 0 {
		return 0, 0, false
	}
	s.ticks++
	if math.Abs(sum/float64(n)-s.expected) > s.tolerance {
		s.bad++
	}
	return s.ticks - s.bad, s.ticks, true
}
