# Convenience targets mirroring .github/workflows/ci.yml exactly, so local
# runs and CI agree. `make ci` is the full gate; `make check` is the fast
# pre-commit subset (see README "Development").

GO ?= go

.PHONY: build test portable fuzz race bench bench-smoke loc fmt vet bigfiles check ci

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# The non-amd64 build run, not only vetted: a 386 binary runs natively on
# an amd64 host, so the portable Go kernels that replace gemm_amd64.s
# elsewhere execute under the packages whose numerics they carry.
portable:
	GOARCH=386 $(GO) test ./internal/tensor ./internal/sparse ./internal/nn ./internal/half

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

# Every testing.B benchmark, one iteration each in -short mode: proves
# they all still run. Allocation contracts are AllocsPerRun tests in
# `make test`; compare timings with -cpu 1 -count N (README "Benchmarking").
bench:
	$(GO) test -run '^$$' -bench . -benchtime 1x -short ./...

# The repo's end-to-end benchmark (BENCHMARK.json, benchmark/README.md):
# all seven workloads at the default 10 s window, results in a temp dir,
# failing if any workload reports correct:false. Shorter windows are too
# short for finetune.sparse.seq512's checks (timed steps, falling loss).
bench-smoke:
	@dir=$$(mktemp -d); $(GO) run ./benchmark -out "$$dir"; s=$$?; rm -rf "$$dir"; exit $$s

# Non-test Go lines outside benchmark/ — the number ROADMAP item 9's
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

ci: check build test portable fuzz race bench bench-smoke
