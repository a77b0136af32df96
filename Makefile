# Convenience targets mirroring .github/workflows/ci.yml exactly, so local
# runs and CI agree. `make ci` is the full gate; `make check` is the fast
# pre-commit subset (see README "Development").

GO ?= go
BASELINES := .github/bench
# The CI-gated bench suites, listed once: `make bench`, `make baseline` and
# the CI bench job (which runs `make bench`) all read this.
SUITES := kernels,kernels_precision,train_step,generate,generate_sparse,obs,trace,slo,account
# Extra lebench flags (CI passes "-out ." so reports land where the
# upload-artifact step looks).
BENCH_FLAGS ?=

.PHONY: build test fuzz race bench bench-smoke bench-allocs baseline loc fmt vet bigfiles check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# Every native fuzz target for 10 s. `go test -fuzz` takes one target in
# one package per run, so the targets are listed from the test sources.
fuzz:
	@set -e; for f in $$(grep -rl --include='*_test.go' '^func Fuzz' .); do \
		for t in $$(sed -n 's/^func \(Fuzz[A-Za-z0-9_]*\)(.*/\1/p' $$f); do \
			$(GO) test -run '^$$' -fuzz "^$$t$$" -fuzztime 10s $$(dirname $$f); \
		done; \
	done

# Race detector over every package — what CI's race job runs.
race:
	$(GO) test -race ./...

# CI-sized benchmarks, gated against the checked-in baselines on both
# ns/op (relative tolerance) and allocs/op (absolute tolerance).
bench:
	$(GO) run ./cmd/lebench -suite $(SUITES) -short $(BENCH_FLAGS) -baseline $(BASELINES) -tolerance 0.20 -alloc-tolerance 16

# The repo's end-to-end benchmark (BENCHMARK.json, benchmark/README.md):
# all seven workloads at the default 10 s window, results in a temp dir,
# failing if any workload reports correct:false. Shorter windows are too
# short for finetune.sparse.seq512's checks (timed steps, falling loss).
bench-smoke:
	@dir=$$(mktemp -d); $(GO) run ./benchmark -out "$$dir"; s=$$?; rm -rf "$$dir"; exit $$s

# Allocation gate alone: the train_step, obs, trace, slo and account
# suites compare the workspace-arena step (bare and instrumented), the
# instrumented decode step, the SLO evaluation tick, and the wide-event
# emit against their checked-in zero allocs/op baselines — the CI bench
# job's allocation axis without its ns/op axis.
bench-allocs:
	$(GO) run ./cmd/lebench -suite train_step,obs,trace,slo,account -short -baseline $(BASELINES) -tolerance 1000 -alloc-tolerance 16

# Regenerate the checked-in baselines from this machine. Commit the result
# only when intentionally resetting the perf reference (e.g. after a
# deliberate trade-off or a runner change).
baseline:
	$(GO) run ./cmd/lebench -suite $(SUITES) -short -repeats 4 -out $(BASELINES)

# Non-test Go lines outside benchmark/ — the number ROADMAP item 3's
# "less code" target is measured in.
loc:
	@find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' ! -path './.git/*' | xargs cat | wc -l

fmt:
	@out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:" >&2; echo "$$out" >&2; exit 1; fi

# vet on amd64 also runs asmdecl over the assembly kernels; the arm64 pass
# type-checks the portable files that replace them elsewhere.
vet:
	$(GO) vet ./...
	GOARCH=arm64 $(GO) vet ./...

# No tracked file above 1 MB: a built binary must not be committed.
bigfiles:
	@git ls-files -z | xargs -0 du -k | awk '$$1>1024{print; bad=1} END{exit bad}'

check: fmt vet bigfiles

ci: check build test fuzz race bench bench-smoke
