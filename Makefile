# Development targets for the Spinner reproduction. Architecture lives in
# the package docs (doc.go, internal/serve, cmd/spinnerd), not here.
#
#   make check       — vet + test + test-race + test-cpu (what CI enforces
#                      on push/PR)
#   make test        — tier-1 gate: go build ./... && go test ./...
#   make test-race   — go test -race ./...
#   make test-cpu    — the partitioner, the engine and the analytics apps
#                      under GOMAXPROCS 1 and 4 (go test -cpu 1,4): what
#                      they pin must not depend on the host
#   make lint        — gofmt -l (fails on unformatted files) + go vet +
#                      bash -n on every scripts/*.sh + no stale line in
#                      scripts/coverage_decisions.txt (a missing file, or a
#                      function with no func declaration in it) + the
#                      against.sh table of each run file under
#                      scripts/testdata/against equals the .txt beside it
#   make bench       — the repo's one benchmark (BENCHMARK.json): four
#                      workloads, end to end; see benchmark/README.md
#   make bench-test  — vet + unit tests of the benchmark module (its own
#                      go.mod, so tier-1 does not see it)
#   make bench-quick — every Go micro-benchmark compiles and runs once
#   make against REF=<commit> [PAIRS=6] [WORKLOAD=<name>...]
#                    — alternating REF/working-tree pairs of the benchmark
#                      (scripts/against.sh): medians, change, wins/N and
#                      relative IQR per workload and metric, and one line
#                      per workload appended to docs/bench-ledger.jsonl
#   make examples-smoke — go run each examples/* program; fails on the first
#                      non-zero exit (each takes about a second)
#   make profile-core — CPU and allocation profiles of the LPA loop, from
#                      scratch and from warm starts (BenchmarkSpinnerIteration,
#                      BenchmarkPartitionWeighted at partition-scratch's
#                      out-of-cache size, BenchmarkWarmStart), and of the
#                      conversion before it (BenchmarkConvert, same graphs),
#                      into out/; top 15 functions by CPU and top 10 by
#                      allocated bytes printed; then the warm starts alone
#                      (BenchmarkWarmStart, out/warm.prof: the from-scratch
#                      runs dominate the combined profile), top 15 by CPU;
#                      then the message plane on its own (BenchmarkDelivery
#                      in internal/pregel, a package of its own so a profile
#                      of its own), top 15 by CPU
#   make profile-api — the same two profiles of the /v1/lookup read path
#                      (BenchmarkHandleLookup point and whole map,
#                      BenchmarkParseResync) into out/; top 10 of each
#   make profile-serve — the write path as two processes (scripts/
#                      profile_serve.sh): a leader and a follower with
#                      serve-write's flags under a flood of its batches from
#                      nproc connections; per process batches/s, CPU µs per
#                      batch, top 15 functions by CPU and top 10 by
#                      allocated bytes, into out/profile-serve/ (about 25 s)
#   make scale       — the scale curve (go run ./scripts/scale): one process
#                      per size, 2 M, 20 M, 80 M and 160 M arcs, each row
#                      time, iterations, ns/arc/iter, B/arc and peak RSS; a
#                      size the host cannot fit prints as a row that says
#                      so. Not a gate; minutes, and up to the host's memory
#   make fuzz        — 10s on every Fuzz target in the module, found by
#                      go test -list (a new target needs no edit here)
#   make *-smoke     — kill -9 / overload / failover / change-feed / metrics
#                      drills against a real spinnerd over /v1 (scripts/);
#                      each ends its daemons with SIGTERM and fails on a
#                      non-zero exit or one slower than 5 s
#   make coverage-map — which functions the benchmark, the drills, the
#                      examples and the unit tests reach, per function and
#                      per package, into out/coverage-map.txt (about 2.5
#                      min on a 2-vCPU host); a tool for deciding what to
#                      delete, not a CI gate
#   make reproduction — REPRODUCTION.md: the scoreboard of the paper's
#                      claims (go run ./cmd/experiments) at the default
#                      scale, headed by the commit, seed, scale, nproc and
#                      GOMAXPROCS (about 35 s on a 2-vCPU host); fails
#                      when a row fails
#   make loc         — code lines (non-test .go files, skipping blank lines
#                      and lines that start with //) per package under
#                      internal/ and cmd/, then the serving-core total over
#                      internal/{serve,api,api/client,replica,wal,frame};
#                      the size figure ROADMAP quotes, not a gate

.PHONY: all check build vet lint test test-race test-cpu bench bench-test bench-quick against examples-smoke profile-core profile-api profile-serve scale fuzz reproduction loc coverage-map recovery-smoke overload-smoke replication-smoke changefeed-smoke metrics-smoke

CORE := internal/serve internal/api internal/api/client internal/replica internal/wal internal/frame
# codelines prints the code lines of the non-test Go files of the package
# directories it is given.
codelines = for d in $(1); do ls $$d/*.go | grep -v '_test\.go$$'; done | xargs cat | awk '!/^[ \t]*(\/\/.*)?$$/' | wc -l

all: check

check: vet test test-race test-cpu

build:
	go build ./...

vet:
	go vet ./...

lint:
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi
	go vet ./...
	@for f in scripts/*.sh; do bash -n $$f || exit 1; done
	@scripts/check_coverage_decisions.sh
	@for f in scripts/testdata/against/*.jsonl; do \
		scripts/against.sh -summarize $$f | diff -u $${f%.jsonl}.txt - || exit 1; \
	done

test:
	go build ./...
	go test ./...

test-race:
	go test -race ./...

test-cpu:
	go test -cpu 1,4 ./internal/core/... ./internal/pregel/... ./internal/apps/...

bench:
	go -C benchmark run .

bench-test:
	go -C benchmark vet ./...
	go -C benchmark test ./...

bench-quick:
	go test -run='^$$' -bench=. -benchtime=1x ./...

PAIRS ?= 6
against:
	@test -n "$(REF)" || { echo "usage: make against REF=<commit> [PAIRS=6] [WORKLOAD=<name>...]" >&2; exit 2; }
	./scripts/against.sh $(REF) $(PAIRS) $(WORKLOAD)

examples-smoke:
	@for d in examples/*/; do \
		echo "== go run ./$$d"; \
		go run ./$$d > /dev/null || exit 1; \
	done

profile-core:
	mkdir -p out
	go test -run '^$$' -bench 'BenchmarkSpinnerIteration|BenchmarkPartitionWeighted|BenchmarkWarmStart|BenchmarkConvert' -benchtime 5x \
		-cpuprofile out/core.prof -memprofile out/core.mem -o out/core.test .
	go tool pprof -top -nodecount 15 out/core.test out/core.prof
	go tool pprof -sample_index=alloc_space -top -nodecount 10 out/core.test out/core.mem
	out/core.test -test.run '^$$' -test.bench 'BenchmarkWarmStart' -test.benchtime 5x -test.cpuprofile out/warm.prof
	go tool pprof -top -nodecount 15 out/core.test out/warm.prof
	go test -run '^$$' -bench 'BenchmarkDelivery' -benchtime 20x -benchmem \
		-cpuprofile out/delivery.prof -o out/pregel.test ./internal/pregel
	go tool pprof -top -nodecount 15 out/pregel.test out/delivery.prof

profile-api:
	mkdir -p out
	go test -run '^$$' -bench 'BenchmarkHandleLookup|BenchmarkParseResync' -benchtime 2000x \
		-cpuprofile out/api.prof -memprofile out/api.mem -o out/api.test ./internal/api
	go tool pprof -top -nodecount 10 out/api.test out/api.prof
	go tool pprof -sample_index=alloc_space -top -nodecount 10 out/api.test out/api.mem

profile-serve:
	./scripts/profile_serve.sh

scale:
	go run ./scripts/scale

fuzz:
	@for pkg in $$(go list ./...); do \
		for target in $$(go test -list '^Fuzz' $$pkg | grep '^Fuzz'); do \
			echo "== $$pkg $$target"; \
			go test -run='^$$' -fuzz="^$$target\$$" -fuzztime=10s $$pkg || exit 1; \
		done; \
	done

reproduction:
	@rev=$$(git describe --always --dirty); \
	{ echo "# REPRODUCTION — the paper's claims, checked"; echo; \
	  echo "Generated by \`make reproduction\` (\`go run ./cmd/experiments\`) at $$rev."; \
	  go run ./cmd/experiments; } > REPRODUCTION.md

loc:
	@for d in $$(ls internal/*/*.go internal/*/*/*.go cmd/*/*.go | grep -v '_test\.go$$' | xargs -n1 dirname | sort -u); do \
		printf '%6d  %s\n' $$($(call codelines,$$d)) $$d; \
	done
	@printf '%6d  serving core\n' $$($(call codelines,$(CORE)))

coverage-map:
	./scripts/coverage_map.sh

recovery-smoke:
	./scripts/recovery_smoke.sh

overload-smoke:
	./scripts/overload_smoke.sh

replication-smoke:
	./scripts/replication_smoke.sh

changefeed-smoke:
	./scripts/changefeed_smoke.sh

metrics-smoke:
	./scripts/metrics_smoke.sh
