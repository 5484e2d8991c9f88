# Developer workflow for the IDC cost-control reproduction.
#
#   make check   — the tier-1 gate plus gofmt, vet, idclint, the race
#                  detector and the bench module; run this before every push.
#                  The race pass matters: sim.Run and experiments.RunAll spawn
#                  goroutines. The non-race test pass matters too: the
#                  allocation-regression tests (testing.AllocsPerRun) skip
#                  themselves under -race.
#   make fmt     — fails if gofmt would change any tracked .go file. The lint
#                  testdata is excluded: it keeps hand-aligned `want:` comments.
#   make bench-module — vet and test bench/, the closed-loop tick benchmark.
#                  It is its own Go module, so `go test ./...` here never
#                  reaches it, but it imports the controller packages and
#                  names sim.Scenario fields, so a change to them can break it.
#   make lint    — idclint, the repo's own static-analysis suite
#                  (kernel aliasing, hot-path allocations, version-bump
#                  protocol, float ==, nocopy structs, plus the concurrency
#                  pack: goroutine termination, mutex-across-blocking,
#                  context plumbing, atomic/plain mixing, map-order sinks);
#                  see DESIGN.md §3.6 and §3.11.
#   make test    — fast unit tests only, in shuffled order.
#   make leaktest — the goroutine-leak regression tests (internal/leaktest
#                  harness) under the race detector; the runtime backstop
#                  for what the goleak analyzer can only check statically.
#   make bench   — the paper-artifact benchmarks with series checksums,
#                  run three times (-count 3) and recorded to $(BENCH_JSON)
#                  as the median of the repeats, with each metric's spread;
#                  the run fails if any series checksum differs between the
#                  repeats or drifts from the $(BENCH_REF) snapshot (results
#                  must be bit-identical across PRs; only timings may move)
#                  or if a pinned hot benchmark (MPCStep, warm LP, the
#                  solver scaling points) regresses in ns/op vs the snapshot
#                  after normalizing out machine drift via the frozen Expm
#                  calibration bench (its median over the repeats), or if
#                  the same-run ratio pin misses its floor: the structured
#                  C50×N20 MPC step must keep its ≥5× edge over the
#                  ForceDense control.
#                  The cross-snapshot gate only means something between
#                  runs on the same machine, which is why it lives here
#                  and not in CI.
#   make bench-smoke — one iteration per benchmark, series checksums only;
#                  cheap enough for CI, catches result drift but not perf.
#                  Runs with -short: the dense C50×N20 control bench (a
#                  multi-minute one-time factorization that exists only for
#                  the local perf-ratio snapshot) skips itself there.

GO ?= go
BENCH_JSON ?= BENCH_PR14.json
BENCH_REF ?= BENCH_PR14.json

.PHONY: check fmt vet lint build test race bench-module leaktest bench bench-smoke

check: fmt vet lint build test race bench-module

fmt:
	@out=$$(git ls-files '*.go' | grep -v /testdata/ | xargs gofmt -l); \
	if [ -n "$$out" ]; then echo "gofmt -l reports unformatted files:"; echo "$$out"; exit 1; fi

vet:
	$(GO) vet ./...

lint:
	$(GO) run ./cmd/idclint ./...

build:
	$(GO) build ./...

test:
	$(GO) test -shuffle=on ./...

race:
	$(GO) test -race ./...

bench-module:
	cd bench && $(GO) vet ./... && $(GO) test ./...

leaktest:
	$(GO) test -race -run Leak ./internal/... -count=1

bench:
	$(GO) test -run XXX -bench . -benchmem -count 3 . | $(GO) run ./cmd/benchjson -out $(BENCH_JSON) -check-series $(BENCH_REF) -check-perf $(BENCH_REF)

bench-smoke:
	$(GO) test -short -run XXX -bench . -benchtime 1x -benchmem . | $(GO) run ./cmd/benchjson -out /tmp/bench-smoke.json -check-series $(BENCH_REF)
