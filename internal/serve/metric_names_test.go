package serve_test

import (
	"context"
	"sort"
	"strings"
	"testing"
	"time"

	"longexposure/internal/account"
	"longexposure/internal/jobs"
	"longexposure/internal/limit"
	"longexposure/internal/obs"
	"longexposure/internal/registry"
	"longexposure/internal/serve"
	"longexposure/internal/slo"
)

// lexpFamilies is the metric catalogue a fully wired longexpd exposes —
// every plane on, as cmd/longexpd builds it. The set is part of the
// operator contract (dashboards, alert rules and the SLO sources key on
// these names and label keys): refactors of the instrument plumbing must
// not add, rename, relabel or lose a family.
var lexpFamilies = []string{
	"lexp_account_events_total{kind}",
	"lexp_account_flops_dense_total{}",
	"lexp_account_flops_executed_total{}",
	"lexp_account_log_bytes_total{}",
	"lexp_account_log_errors_total{}",
	"lexp_account_output_tokens_total{}",
	"lexp_account_prompt_tokens_total{}",
	"lexp_account_segments_total{}",
	"lexp_account_shed_total{}",
	"lexp_base_weight_bytes{precision}",
	"lexp_build_info{version,commit,go_version}",
	"lexp_flops_saved_total{layer_kind}",
	"lexp_gateway_adapter_cache_evictions_total{}",
	"lexp_gateway_adapter_cache_hits_total{}",
	"lexp_gateway_adapter_cache_misses_total{}",
	"lexp_gateway_engines{}",
	"lexp_http_inflight{}",
	"lexp_http_request_seconds{route}",
	"lexp_http_requests_total{route,code}",
	"lexp_infer_active_sequences{}",
	"lexp_infer_admitted_total{}",
	"lexp_infer_batch_occupancy{}",
	"lexp_infer_kv_rows{}",
	"lexp_infer_plan_attn_density{}",
	"lexp_infer_plan_mlp_density{}",
	"lexp_infer_queue_depth{}",
	"lexp_infer_retired_total{reason}",
	"lexp_infer_scheduler_steps_total{}",
	"lexp_infer_sequence_seconds{}",
	"lexp_infer_sparse_steps_total{}",
	"lexp_infer_tokens_total{}",
	"lexp_jobs_cache_hits_total{}",
	"lexp_jobs_completed_total{status}",
	"lexp_jobs_events_dropped_total{}",
	"lexp_jobs_events_total{}",
	"lexp_jobs_queue_depth{}",
	"lexp_jobs_run_seconds{}",
	"lexp_jobs_running{}",
	"lexp_jobs_submitted_total{}",
	"lexp_jobs_wait_seconds{}",
	"lexp_limit_admitted_total{endpoint}",
	"lexp_limit_inflight{endpoint}",
	"lexp_limit_shed_total{endpoint,reason}",
	"lexp_limit_tenants{}",
	"lexp_limit_wait_seconds{endpoint}",
	"lexp_limit_waiting{endpoint}",
	"lexp_registry_adapters{}",
	"lexp_registry_deletes_total{}",
	"lexp_registry_loads_total{}",
	"lexp_registry_publishes_total{}",
	"lexp_runtime_gc_cycles_total{}",
	"lexp_runtime_gc_pause_seconds_total{}",
	"lexp_runtime_gomaxprocs{}",
	"lexp_runtime_goroutines{}",
	"lexp_runtime_heap_bytes{}",
	"lexp_runtime_heap_objects{}",
	"lexp_slo_alert_state{objective}",
	"lexp_slo_alert_transitions_total{objective,state}",
	"lexp_slo_alerts_firing{}",
	"lexp_slo_burn_rate{objective,window}",
	"lexp_slo_error_budget_remaining{objective}",
	"lexp_slo_evaluations_total{}",
	"lexp_sparse_attn_density{layer}",
	"lexp_sparse_mlp_density{layer}",
	"lexp_sparse_serving_attn_density{layer}",
	"lexp_sparse_serving_mlp_density{layer}",
	"lexp_train_arena_gets_total{}",
	"lexp_train_arena_misses_total{}",
	"lexp_train_loss{}",
	"lexp_train_phase_seconds_total{phase}",
	"lexp_train_step_seconds{}",
	"lexp_train_steps_total{}",
	"lexp_train_tokens_total{}",
}

func TestMetricFamilyNamesAreStable(t *testing.T) {
	obsReg := obs.NewRegistry()
	obs.RegisterRuntimeMetrics(obsReg)
	obs.RegisterBuildInfo(obsReg, "test")
	plane, err := account.New(account.Config{Metrics: obs.NewAccountMetrics(obsReg)})
	if err != nil {
		t.Fatal(err)
	}
	defer plane.Close()
	reg, err := registry.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	reg.Instrument(obs.NewRegistryMetrics(obsReg))
	eng, err := slo.New(slo.DefaultConfig(), slo.Deps{Metrics: obsReg})
	if err != nil {
		t.Fatal(err)
	}
	store := jobs.NewStore(jobs.Config{Workers: 1, Registry: reg, Obs: obsReg, Account: plane})
	srv := serve.New(store,
		serve.WithMetrics(obsReg),
		serve.WithRegistry(reg, 2),
		serve.WithLimits(serve.LimitConfig{Limit: limit.Config{Rate: 100}, MaxInFlight: 4}),
		serve.WithSLO(eng),
		serve.WithAccounting(plane),
	)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Shutdown(ctx)
	}()

	var got []string
	for _, fam := range obsReg.Gather() {
		if !strings.HasPrefix(fam.Name, "lexp_") {
			t.Errorf("family %q is outside the lexp_ namespace", fam.Name)
		}
		got = append(got, fam.Name+"{"+strings.Join(fam.Keys, ",")+"}")
	}
	sort.Strings(got)
	want := append([]string(nil), lexpFamilies...)
	sort.Strings(want)
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("metric families changed.\n got: %s\nwant: %s", strings.Join(got, " "), strings.Join(want, " "))
	}
}
