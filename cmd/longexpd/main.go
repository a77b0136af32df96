// Command longexpd is the Long Exposure fine-tuning and serving daemon: it
// serves the job API (internal/serve) over a scheduler and bounded worker
// pool (internal/jobs), and — with a registry directory — the inference
// gateway: completed fine-tuning jobs are auto-published as adapter
// artifacts and served with KV-cached, continuously-batched generation on
// a shared frozen base.
//
// Usage:
//
//	longexpd -addr :8080 -workers 4 -cache 128 -registry adapters \
//	  -rate-limit 5 -max-inflight 8 -tenant-header X-API-Key
//
//	# submit a fine-tune job (its adapter publishes on completion)
//	curl -s localhost:8080/v1/jobs -d '{"kind":"finetune","finetune":{"method":"lora","steps":8}}'
//	# follow its progress
//	curl -N localhost:8080/v1/jobs/job-000001/events
//	# list published adapters, then stream tokens from one
//	curl -s localhost:8080/v1/adapters
//	curl -N localhost:8080/v1/generate -d '{"adapter":"ad-…","prompt":[11,12,13],"decode":{"sampling":{"max_tokens":16}}}'
//	# run a paper experiment
//	curl -s localhost:8080/v1/jobs -d '{"kind":"experiment","experiment":{"id":"fig4"}}'
//	# cancel
//	curl -s -X DELETE localhost:8080/v1/jobs/job-000001
//
// The planes, each off or idle by default and documented in the README's
// Operations section (flags: longexpd -h):
//
//   - metrics (-metrics, default on): every subsystem instrumented,
//     Prometheus text at GET /metrics.
//   - traffic control (-rate-limit, -global-rate-limit, -tenant-header,
//     -max-inflight, -max-wait): 429 + Retry-After on POST /v1/generate
//     and POST /v1/jobs; GET /readyz reports 503 while draining,
//     shedding or slo_firing, GET /healthz stays pure liveness.
//   - tracing, logging, profiling (-trace-*, -log-*, -pprof,
//     -sse-keepalive): span trees at GET /debug/traces, slog records
//     carrying trace ids.
//   - SLOs (-slo-config, a JSON file or "default"): burn-rate alerting
//     over the live metrics at GET /debug/slo and GET /v1/alerts;
//     -flight-recorder-dir arms black-box dumps on alert-firing, SIGQUIT
//     and panic (GET /debug/flightrecorder).
//   - accounting (always on): one wide event per request and job at
//     GET /debug/events, per-tenant usage at GET /v1/usage; -account-dir
//     persists them, -account-retention ages them out.
//
// SIGINT/SIGTERM trigger a graceful shutdown that drains queued and
// running jobs, bounded by -drain.
package main

import (
	"context"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"longexposure/internal/account"
	"longexposure/internal/jobs"
	"longexposure/internal/limit"
	"longexposure/internal/obs"
	"longexposure/internal/registry"
	"longexposure/internal/serve"
	"longexposure/internal/slo"
	"longexposure/internal/trace"
)

// version is stamped by the build (-ldflags "-X main.version=v1.2.3");
// obs.Build falls back to VCS metadata when it is left at "dev".
var version = "dev"

// fatal reports a startup error and exits.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "longexpd:", err)
	os.Exit(1)
}

func main() {
	var (
		addr     = flag.String("addr", ":8080", "listen address")
		workers  = flag.Int("workers", max(1, runtime.NumCPU()/2), "concurrent job executions")
		cache    = flag.Int("cache", 64, "result cache capacity (entries)")
		drain    = flag.Duration("drain", 30*time.Second, "graceful shutdown budget for draining jobs")
		regDir   = flag.String("registry", "adapters", "adapter registry directory; empty disables publishing and serving")
		maxBatch = flag.Int("max-batch", 4, "sequences stacked into one decode step in the generation engine")

		metrics      = flag.Bool("metrics", true, "instrument all subsystems and expose Prometheus text format at GET /metrics")
		rateLimit    = flag.Float64("rate-limit", 0, "per-tenant request rate (req/s) on /v1/generate and POST /v1/jobs; 0 disables rate limiting")
		globalRate   = flag.Float64("global-rate-limit", 0, "global request rate (req/s) across all tenants; 0 disables the global tier")
		tenantHeader = flag.String("tenant-header", "X-API-Key", "request header identifying the tenant for per-tenant rate limiting")
		maxInflight  = flag.Int("max-inflight", 0, "admission-control concurrency cap per guarded endpoint; 0 disables load shedding")
		maxWait      = flag.Int("max-wait", 8, "bounded admission wait queue per guarded endpoint (with -max-inflight)")

		logLevel     = flag.String("log-level", "info", "structured log level: debug, info, warn, error")
		logFormat    = flag.String("log-format", "text", "structured log format: text or json")
		traceSample  = flag.Float64("trace-sample", 1, "fraction of requests to trace (0 disables tracing)")
		traceBuffer  = flag.Int("trace-buffer", 4096, "span ring-buffer capacity behind GET /debug/traces")
		traceSlowest = flag.Int("trace-slowest", 32, "slowest spans retained for GET /debug/traces; negative disables")
		pprofFlag    = flag.Bool("pprof", false, "mount net/http/pprof at GET /debug/pprof/")
		sseKeepalive = flag.Duration("sse-keepalive", 15*time.Second, "idle SSE keepalive comment interval; 0 disables")

		sloConfig = flag.String("slo-config", "", `SLO objectives: a JSON config path, or "default" for the built-in objectives; empty disables the SLO engine`)
		flightDir = flag.String("flight-recorder-dir", "", "directory for flight-recorder dumps (alert-firing, SIGQUIT, panic); empty keeps the black box in memory only")

		accountDir       = flag.String("account-dir", "", "directory for the wide-event accounting log; empty keeps accounting in memory only")
		accountRetention = flag.Duration("account-retention", 0, "prune sealed accounting segments older than this age; 0 keeps them until the size budget evicts them")

		showVersion = flag.Bool("version", false, "print version information and exit")
	)
	flag.Parse()

	if *showVersion {
		b := obs.Build(version)
		fmt.Printf("longexpd %s (commit %s, %s)\n", b.Version, b.Commit, b.GoVersion)
		return
	}

	logger := trace.NewLogger(os.Stderr, *logLevel, *logFormat)

	var tracer *trace.Tracer
	if *traceSample > 0 {
		tracer = trace.New(trace.Config{
			SampleRatio: *traceSample,
			Capacity:    *traceBuffer,
			SlowestN:    *traceSlowest,
		})
	}

	// The flight recorder tees every slog record into its ring, so it
	// wraps the logger before any subsystem takes a reference. It exists
	// whenever the SLO engine does (dir-less recorders still serve
	// GET /debug/flightrecorder); a dump directory arms dumps-to-disk.
	var recorder *slo.Recorder
	if *sloConfig != "" {
		recorder = slo.NewRecorder(slo.RecorderConfig{Dir: *flightDir}, tracer)
		logger = slog.New(recorder.LogHandler(logger.Handler()))
		defer recorder.HandlePanic()
	}
	slog.SetDefault(logger)

	// A nil tracer and a nil metrics registry are the "off" values of
	// their planes everywhere they are threaded.
	var obsReg *obs.Registry
	if *metrics {
		obsReg = obs.NewRegistry()
		obs.RegisterRuntimeMetrics(obsReg)
		obs.RegisterBuildInfo(obsReg, version)
	}
	jcfg := jobs.Config{Workers: *workers, CacheSize: *cache, Logger: logger, Tracer: tracer, Obs: obsReg}
	opts := []serve.Option{
		serve.WithLogger(logger),
		serve.WithSSEKeepalive(*sseKeepalive),
		serve.WithTracing(tracer),
		serve.WithMetrics(obsReg),
	}
	if *pprofFlag {
		opts = append(opts, serve.WithPprof())
	}
	// The accounting plane is always on: the in-memory ring and
	// GET /debug/events cost nothing when idle; -account-dir additionally
	// persists every event to a crash-tolerant segmented log (replayed on
	// startup, so usage rollups survive restarts).
	plane, err := account.New(account.Config{
		Dir:       *accountDir,
		Retention: *accountRetention,
		Metrics:   obs.NewAccountMetrics(obsReg),
	})
	if err != nil {
		fatal(err)
	}
	defer plane.Close()
	jcfg.Account = plane
	opts = append(opts, serve.WithAccounting(plane))

	var sloEngine *slo.Engine
	if *sloConfig != "" {
		if obsReg == nil {
			fatal(fmt.Errorf("-slo-config requires -metrics (the engine evaluates live metrics)"))
		}
		cfg := slo.DefaultConfig()
		if *sloConfig != "default" {
			var err error
			if cfg, err = slo.LoadConfig(*sloConfig); err != nil {
				fatal(err)
			}
		}
		var err error
		sloEngine, err = slo.New(cfg, slo.Deps{
			Metrics:  obsReg,
			Tracer:   tracer,
			Logger:   logger,
			Recorder: recorder,
		})
		if err != nil {
			fatal(err)
		}
		opts = append(opts, serve.WithSLO(sloEngine))
		// Cross-plane joins: every accounting event carries the SLO
		// verdict at emit time, and flight-recorder dumps include the
		// last wide events next to the spans and logs they share trace
		// ids with.
		plane.SetHealth(sloEngine.Healthy)
		if recorder != nil {
			recorder.SetEventSource(func() any { return plane.Recent(32) })
		}
	}
	if *regDir != "" {
		reg, err := registry.Open(*regDir)
		if err != nil {
			fatal(err)
		}
		reg.Instrument(obs.NewRegistryMetrics(obsReg))
		jcfg.Registry = reg
		opts = append(opts, serve.WithRegistry(reg, *maxBatch))
	}
	if *rateLimit > 0 || *globalRate > 0 || *maxInflight > 0 {
		opts = append(opts, serve.WithLimits(serve.LimitConfig{
			Limit:        limit.Config{Rate: *rateLimit, GlobalRate: *globalRate},
			TenantHeader: *tenantHeader,
			MaxInFlight:  *maxInflight,
			MaxWait:      *maxWait,
		}))
	}
	store := jobs.NewStore(jcfg)
	srv := serve.New(store, opts...)
	if sloEngine != nil {
		sloEngine.Start()
		defer sloEngine.Stop()
	}

	// SIGQUIT: dump the black box, then restore the runtime's default
	// handler and re-raise so the process still dies with its goroutine
	// stacks — the dump is a bonus, not a behavior change.
	if recorder != nil {
		quit := make(chan os.Signal, 1)
		signal.Notify(quit, syscall.SIGQUIT)
		go func() {
			<-quit
			if path, err := recorder.Dump("SIGQUIT"); err != nil {
				logger.Error("flight recorder dump failed", "err", err)
			} else if path != "" {
				logger.Info("flight recorder dump written", "path", path)
			}
			signal.Reset(syscall.SIGQUIT)
			syscall.Kill(syscall.Getpid(), syscall.SIGQUIT)
		}()
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe(*addr) }()
	serving := "disabled"
	if *regDir != "" {
		serving = *regDir
	}
	logger.Info("listening",
		"addr", *addr,
		"workers", store.Workers(),
		"cache", *cache,
		"registry", serving,
		"trace_sample", *traceSample,
		"pprof", *pprofFlag)

	select {
	case err := <-errc:
		if err != nil {
			logger.Error("serve failed", "err", err)
			os.Exit(1)
		}
	case <-ctx.Done():
		logger.Info("shutting down, draining jobs", "budget", *drain)
		shutdownCtx, cancel := context.WithTimeout(context.Background(), *drain)
		defer cancel()
		if err := srv.Shutdown(shutdownCtx); err != nil {
			logger.Error("shutdown failed", "err", err)
			os.Exit(1)
		}
		logger.Info("drained")
	}
}
