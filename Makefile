# Developer verification targets. `make check` is the tier-1+ gate
# referenced by ROADMAP.md: formatting, vet, fragvet (the repo's own
# static analyzers, DESIGN.md §3.6), build, and the full test suite under
# the race detector (the parallel decomposition driver makes
# race-cleanliness part of the contract). Each stage reports its wall time
# so suite-latency regressions show up in every run, not just when
# profiled.

GO ?= go

.PHONY: check fmt-check vet fragvet build test race benchcompile bench-paper size traffic

check: fmt-check vet fragvet build benchcompile race
	@echo "make check: all stages passed"

fmt-check:
	@t0=$$(date +%s); out=$$(gofmt -l .); if [ -n "$$out" ]; then \
		echo "gofmt needed on:"; echo "$$out"; exit 1; fi; \
	echo "fmt-check: $$(( $$(date +%s) - t0 ))s"

vet:
	@t0=$$(date +%s); $(GO) vet ./... || exit $$?; \
	echo "vet: $$(( $$(date +%s) - t0 ))s"

# fragvet's exit codes are part of its contract: 0 clean, 1 findings,
# 2 load/internal error. Distinguish them so CI logs tell a dirty tree
# ("fix or annotate the findings") from a broken tool. Built and run
# directly — `go run` collapses every nonzero exit to 1.
fragvet:
	@t0=$$(date +%s); bin=$$(mktemp); \
	$(GO) build -o $$bin ./cmd/fragvet || { rm -f $$bin; exit 2; }; \
	$$bin ./...; code=$$?; rm -f $$bin; \
	case $$code in \
	0) echo "fragvet: clean: $$(( $$(date +%s) - t0 ))s";; \
	1) echo "fragvet: findings above: fix them or annotate with //fragvet:ignore <analyzer> — <reason>"; exit 1;; \
	*) echo "fragvet: tool/load error (exit $$code) — not a findings failure"; exit $$code;; \
	esac

build:
	@t0=$$(date +%s); $(GO) build ./... || exit $$?; \
	echo "build: $$(( $$(date +%s) - t0 ))s"

test:
	$(GO) test ./...

# Race-instrumented solver tests run 5-20x slower than native; the core
# package alone needs ~10 minutes, so the default 10-minute per-package
# timeout is too tight when packages share the machine.
race:
	@t0=$$(date +%s); $(GO) test -race -timeout 1800s ./... || exit $$?; \
	echo "race: $$(( $$(date +%s) - t0 ))s"

# Bench-rot guard: run every benchmark in the repo exactly once so a
# benchmark that no longer compiles or crashes fails `make check`. -short
# trims the evaluator benchmark's scenario sweep.
benchcompile:
	@t0=$$(date +%s); $(GO) test -run NONE -bench . -benchtime 1x -short ./... || exit $$?; \
	echo "benchcompile: $$(( $$(date +%s) - t0 ))s"

# Paper-scale table/figure benchmarks (the pre-existing root suite).
bench-paper:
	$(GO) test -bench . -benchmem -run NONE .

# The numbers a simplicity PR and its reviewer both read: non-test Go lines
# per package and in total (bench/ and testdata directories excluded), and
# how many findings each analyzer has suppressed by //fragvet:ignore outside
# internal/analysis. Not part of `make check`.
size:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' \
		! -path '*/testdata/*' ! -path './.bench_build/*' | sort | xargs wc -l | \
		awk '$$2 != "total" { d = $$2; sub(/\/[^\/]*$$/, "", d); if (!(d in n)) order[++k] = d; n[d] += $$1; t += $$1 } \
			END { for (i = 1; i <= k; i++) printf "%6d %s\n", n[order[i]], order[i]; printf "%6d total non-test Go lines\n", t }'
	@grep -rhoE --include='*.go' --exclude-dir=analysis --exclude-dir=.bench_build \
		'//fragvet:ignore [a-z]+' . | awk '{ print $$2 }' | sort | uniq -c | \
		awk '{ printf "%6d //fragvet:ignore %s\n", $$1, $$2 }'

# Which code does the benchmark's traffic never reach? Builds ./bench with
# coverage instrumentation over the whole module into a temp dir (nothing
# under bench/ is edited or written), runs the traced pass of all five
# workloads at seed 1, and prints every function outside bench/, cmd/ and
# internal/analysis that stayed at 0.0 % — the list a simplicity PR starts
# from: a function on it is either reached only by tests and the CLIs, or
# by nothing. ~1.5 min. Not part of `make check`.
traffic:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; mkdir "$$dir/cov"; \
	$(GO) build -cover -coverpkg=./... -o "$$dir/bench" ./bench || exit $$?; \
	GOCOVERDIR="$$dir/cov" "$$dir/bench" trace -seed 1 -out "$$dir/out" >"$$dir/log" 2>&1 || { cat "$$dir/log"; exit 1; }; \
	$(GO) tool covdata func -i="$$dir/cov" | \
		awk '$$NF == "0.0%" && $$1 !~ /^fragalloc\/(bench|cmd|internal\/analysis)\// { print $$1, $$2 }'
