GO ?= go

# Per-package statement-coverage floors (pkg:percent), enforced by `make
# cover` and the CI workflow. Raise a floor when coverage grows; lowering one
# is a reviewed decision, not a quick fix for a red build.
COVER_FLOORS = internal/shard:85 internal/cluster:90 internal/graph:90 internal/core:85 internal/sparse:85 internal/autograd:80 internal/serve:85 internal/stream:85 internal/fault:95 .:75

.PHONY: ci build vet fmt-check test purego poison cross-vet race fuzz-smoke cover bench bench-smoke bench-host-smoke step-profile trace-smoke stream-smoke chaos-smoke

## ci runs the exact tier-1 gate the CI workflow enforces.
ci: build vet fmt-check test purego poison cross-vet race fuzz-smoke bench-smoke bench-host-smoke

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

fmt-check:
	@out="$$(gofmt -l .)"; if [ -n "$$out" ]; then \
		echo "gofmt -w needed on:"; echo "$$out"; exit 1; fi

## test includes TestModeledGoldens, which pins every modeled (virtual-clock)
## schedule number exactly against testdata/modeled_goldens.jsonl; after a
## deliberate change re-record it with
## `go test . -run TestModeledGoldens -update`.
test:
	$(GO) test ./...

## purego runs the kernel packages' tests on the Go loops that stand in for
## the amd64 assembly elsewhere (the tag switches the assembly off), so the
## fallback is tested on an amd64 runner too.
purego:
	$(GO) test -tags purego ./internal/tensor ./internal/sparse ./internal/autograd ./internal/nn

## poison runs the tensor arena's users with the arenapoison tag: every
## Reset and every uninitialised hand-out of a tensor.Arena fills NaN, so a
## kernel that reads storage it did not write, or a read after a Reset, turns
## a pinned curve or golden (TestModeledGoldens included) into NaN and fails.
poison:
	$(GO) test -tags arenapoison ./internal/tensor ./internal/sparse ./internal/autograd \
		./internal/nn ./internal/shard ./internal/core .

## cross-vet type-checks and vets the tree for arm64, where the fallback is
## the only build; on amd64 `go vet`'s asmdecl check covers the assembly.
cross-vet:
	GOARCH=arm64 $(GO) vet ./...

## race needs an explicit per-package timeout: the instrumented core suite
## exceeds go test's 10m default on single-core machines (no race, just slow).
race:
	$(GO) test -race -timeout 30m ./...

## fuzz-smoke gives the configuration-table, weighted-partitioner,
## train-state-loader and overlap-timeline fuzz targets ten seconds each of
## fresh inputs on top of the committed seed corpora that `make test` replays.
fuzz-smoke:
	$(GO) test -run '^$$' -fuzz FuzzConfigValidate -fuzztime 10s ./internal/core
	$(GO) test -run '^$$' -fuzz FuzzPartitionWeighted -fuzztime 10s ./internal/graph
	$(GO) test -run '^$$' -fuzz FuzzLoadTrainState -fuzztime 10s ./internal/nn
	$(GO) test -run '^$$' -fuzz FuzzOverlap -fuzztime 10s ./internal/cluster

## cover fails when any floor package's statement coverage drops below its
## checked-in COVER_FLOORS threshold.
cover:
	@fail=0; \
	for spec in $(COVER_FLOORS); do \
		pkg=$${spec%%:*}; floor=$${spec##*:}; \
		out=$$($(GO) test -cover ./$$pkg | tail -1); \
		pct=$$(echo "$$out" | sed -n 's/.*coverage: \([0-9.]*\)% of statements.*/\1/p'); \
		if [ -z "$$pct" ]; then echo "FAIL   $$pkg: no coverage reported: $$out"; fail=1; continue; fi; \
		if awk -v p="$$pct" -v f="$$floor" 'BEGIN{exit !(p >= f)}'; then \
			echo "OK     $$pkg coverage $$pct% (floor $$floor%)"; \
		else \
			echo "FAIL   $$pkg coverage $$pct% below floor $$floor%"; fail=1; \
		fi; \
	done; exit $$fail

## bench runs the full benchmark suite with allocation stats.
bench:
	$(GO) test -run '^$$' -bench . -benchmem .

## bench-smoke runs every host benchmark once, as a does-it-still-run gate.
bench-smoke:
	$(GO) test -run '^$$' -bench . -benchtime=1x .

## bench-host-smoke compiles and smoke-tests the nested host-measured
## benchmark module. Root `go build ./...` does not reach it, yet it imports
## internal packages by name, so this is where an internal refactor that
## breaks the benchmark fails first.
bench-host-smoke:
	$(GO) test -C benchmark ./...

## step-profile profiles one training step at the host benchmark's fit-index
## shapes (BenchmarkTrainingStepFitIndex, one P): a CPU profile over 200 steps
## and an exact (-memprofilerate=1) allocation profile over 20, both left in
## .step_profile/ with the test binary, and `pprof -top` of each printed —
## where a perf PR starts.
STEP_PROFILE = $(GO) test -run '^$$' -bench 'BenchmarkTrainingStepFitIndex$$' -benchmem \
	-o .step_profile/pgti.test -outputdir .step_profile
step-profile:
	@mkdir -p .step_profile
	GOMAXPROCS=1 $(STEP_PROFILE) -benchtime 200x -cpuprofile cpu.out .
	GOMAXPROCS=1 $(STEP_PROFILE) -benchtime 20x -memprofile mem.out -memprofilerate=1 .
	$(GO) tool pprof -top -nodecount=15 .step_profile/pgti.test .step_profile/cpu.out
	$(GO) tool pprof -sample_index=alloc_objects -top -nodecount=15 .step_profile/pgti.test .step_profile/mem.out

## trace-smoke exercises the observability layer end to end: a traced 2x2
## hybrid fit, a traced single-GPU index-batching fit (the 1x1 grid), traced
## 2-worker gen-dist-index and baseline-ddp fits (the partitioned-store and
## remote-fetch feeds) and a traced serve burst, each schema-validated by
## pgti trace (well-formed Perfetto JSON, monotone per-thread timestamps,
## nested spans, balanced async pairs). CI uploads the traces as artifacts.
trace-smoke:
	$(GO) run ./cmd/pgti train -dataset Chickenpox-Hungary -epochs 2 \
		-strategy dist-index -workers 2 -shards 2 -quiet -trace train-trace.json
	$(GO) run ./cmd/pgti trace train-trace.json
	$(GO) run ./cmd/pgti train -dataset Chickenpox-Hungary -epochs 2 \
		-strategy index -quiet -trace index-trace.json
	$(GO) run ./cmd/pgti trace index-trace.json
	$(GO) run ./cmd/pgti train -dataset Chickenpox-Hungary -epochs 2 \
		-strategy gen-dist-index -workers 2 -quiet -trace gendist-trace.json
	$(GO) run ./cmd/pgti trace gendist-trace.json
	$(GO) run ./cmd/pgti train -dataset Chickenpox-Hungary -epochs 2 \
		-strategy baseline-ddp -workers 2 -quiet -trace ddp-trace.json
	$(GO) run ./cmd/pgti trace ddp-trace.json
	$(GO) run ./cmd/pgti serve -dataset Chickenpox-Hungary -epochs 2 \
		-retrain-epochs 0 -clients 4 -requests 16 -trace serve-trace.json
	$(GO) run ./cmd/pgti trace serve-trace.json

## stream-smoke exercises the streaming subsystem end to end: bootstrap fit →
## live server → sliding-window ingestion → rolling warm-started retrains with
## atomic weight swaps → serve burst, with the final round's training trace
## and the burst's serving trace each schema-validated by pgti trace. CI
## uploads both traces as artifacts.
stream-smoke:
	$(GO) run ./cmd/pgti stream -rounds 2 -epochs 1 \
		-fit-trace stream-fit-trace.json -serve-trace stream-serve-trace.json
	$(GO) run ./cmd/pgti trace stream-fit-trace.json
	$(GO) run ./cmd/pgti trace stream-serve-trace.json

## chaos-smoke exercises the fault layer end to end: a seeded crash +
## straggler schedule over a traced 2x2 hybrid fit (detect, roll back,
## re-plan onto the survivors, continue), and a traced serve burst whose
## first replica dies mid-load (evict, retry on the healthy replica under
## modeled backoff). Both traces — fault and recovery spans included — are
## schema-validated by pgti trace; CI uploads them as artifacts.
chaos-smoke:
	$(GO) run ./cmd/pgti train -dataset Chickenpox-Hungary -epochs 2 \
		-strategy dist-index -workers 2 -shards 2 -quiet \
		-fault-seed 11 -crash-rank 3 -crash-at 8ms \
		-straggler-rank 0 -straggler-factor 2 -straggler-until 20ms \
		-trace chaos-train-trace.json
	$(GO) run ./cmd/pgti trace chaos-train-trace.json
	$(GO) run ./cmd/pgti serve -dataset Chickenpox-Hungary -epochs 2 \
		-retrain-epochs 0 -clients 4 -requests 16 \
		-fail-replica 0 -fail-after 2 -retry-backoff 4ms \
		-trace chaos-serve-trace.json
	$(GO) run ./cmd/pgti trace chaos-serve-trace.json
