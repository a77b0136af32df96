package slo

import "time"

// Alert states. The gauge encoding (lexp_slo_alert_state) is their
// index: 0 inactive, 1 pending, 2 firing, 3 resolved.
const (
	StateInactive = "inactive"
	StatePending  = "pending"
	StateFiring   = "firing"
	StateResolved = "resolved"
	// StateLost marks a synthesized slow-consumer gap on the alert
	// stream, never a real objective state.
	StateLost = "lost"
)

func stateGauge(state string) float64 {
	switch state {
	case StatePending:
		return 1
	case StateFiring:
		return 2
	case StateResolved:
		return 3
	default:
		return 0
	}
}

// AlertEvent is one alert state transition, as delivered on the
// /v1/alerts SSE stream and retained in the flight recorder.
type AlertEvent struct {
	Seq       int64     `json:"seq"`
	Time      time.Time `json:"time"`
	Objective string    `json:"objective,omitempty"`
	Kind      Kind      `json:"kind,omitempty"`
	State     string    `json:"state"`
	Prev      string    `json:"prev,omitempty"`
	Critical  bool      `json:"critical,omitempty"`

	// Burn rates per window at transition time.
	BurnFastShort float64 `json:"burn_fast_short,omitempty"`
	BurnFastLong  float64 `json:"burn_fast_long,omitempty"`
	BurnSlowShort float64 `json:"burn_slow_short,omitempty"`
	BurnSlowLong  float64 `json:"burn_slow_long,omitempty"`
	// BudgetRemaining is the error-budget fraction left over the budget
	// window (1 = untouched).
	BudgetRemaining float64 `json:"budget_remaining"`

	// Lost counts dropped events when State is "lost".
	Lost    int    `json:"lost,omitempty"`
	Message string `json:"message,omitempty"`
}

// alertReplay is how many recent transitions a new /v1/alerts subscriber
// is replayed before live ones.
const alertReplay = 64

// lostAlert synthesizes the marker a slow /v1/alerts consumer receives in
// place of the transitions its bounded backlog dropped.
func lostAlert(lost int, first, _ AlertEvent) AlertEvent {
	return AlertEvent{Seq: first.Seq, Time: time.Now(), State: StateLost, Lost: lost}
}
