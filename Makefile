# Developer verification targets. `make check` is the tier-1+ gate
# referenced by ROADMAP.md: formatting, vet, fragvet (the repo's own
# static analyzers, DESIGN.md §3.6), build, a short fuzz run of the model,
# checkpoint and lease decoders, the chunk-spec parser, the drift-update
# applier and the update endpoint, and the full test suite under the race
# detector (the parallel decomposition driver makes race-cleanliness part of
# the contract). Each stage reports its wall time so suite-latency
# regressions show up in every run, not just when profiled.

GO ?= go

.PHONY: check fmt-check vet fragvet build test race benchcompile fuzz bench-paper goldens size census traffic profile benchpairs

check: fmt-check vet fragvet build benchcompile fuzz race
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

# Fuzz smoke: ten seconds of each fuzz target — the model's JSON decoders,
# the checkpoint frame decoder, the lease file decoder, the chunk-spec parser,
# the service's update applier over decoded update bodies and its POST
# /v1/update handler over raw ones — beyond its committed seed corpus (the
# race stage runs the corpus alone). go test
# -fuzz takes one target per invocation; -parallel 1 keeps it to one worker.
# A failing input is written under the package's testdata/fuzz/.
fuzz:
	@t0=$$(date +%s); for t in model:FuzzWorkloadJSON model:FuzzScenarioSetJSON checkpoint:FuzzUnframe checkpoint:FuzzReadLease \
		core:FuzzParseChunks service:FuzzApplyUpdate service:FuzzHandleUpdate; do \
		$(GO) test -run NONE -fuzz "^$${t#*:}$$" -fuzztime 10s -parallel 1 ./internal/$${t%%:*} || exit $$?; \
	done; echo "fuzz: $$(( $$(date +%s) - t0 ))s"

# Paper-scale table/figure benchmarks (the pre-existing root suite).
bench-paper:
	$(GO) test -bench . -benchmem -run NONE .

# Every test that pins the search trajectory: the pipeline, simplex, table
# and service-transcript goldens, the LP export golden and the Example
# outputs. A change that moves a pivot runs this to see, and re-record,
# everything it moved in one place (~50 s). Not part of `make check`, which
# runs them all anyway.
goldens:
	$(GO) test -run 'Golden|^Example' ./...

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

# The other number a simplicity PR quotes: every settable value, one line
# each — every field of an *Options/*Config struct and every flag
# definition (flag.* or on a FlagSet named fs) outside _test.go files,
# bench/ and testdata — then the count. Run it at the parent and at the
# change and diff the two. A knob that is a function argument rather than a
# field does not show up. Not part of `make check`.
census:
	@find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' \
		! -path '*/testdata/*' ! -path './.bench_build/*' | sort | xargs awk ' \
		FNR == 1 { d = FILENAME; sub(/\/[^\/]*$$/, "", d); sub(/^\.\/?/, "", d) } \
		/^type [A-Za-z]*(Options|Config) struct/ { t = $$2; inside = 1; next } \
		inside && /^}/ { inside = 0 } \
		inside && match($$0, /^\t[A-Z][A-Za-z0-9]*(, *[A-Z][A-Za-z0-9]*)*/) { \
			n = split(substr($$0, 2, RLENGTH - 1), names, /, */); \
			for (i = 1; i <= n; i++) { print d ": " t "." names[i]; c++ } } \
		!/NewFlagSet/ && match($$0, /(flag|fs)\.[A-Z][A-Za-z0-9]*\("[a-z0-9-]+"/) { \
			f = substr($$0, RSTART, RLENGTH); sub(/.*\("/, "", f); sub(/"$$/, "", f); \
			print d ": -" f; c++ } \
		END { printf "%6d settable values\n", c }'

# Which code does nothing that ships reach? Two drivers, each counted with
# coverage over the whole module into a temp dir (nothing under bench/ is
# edited or written): the benchmark's traced pass of all five workloads at
# seed 1, and the tests of the commands, the paper tables and the daemon
# (./cmd/..., internal/experiments, internal/service, the HA pair included).
# go test exports GOCOVERDIR to each test binary, so the commands' TestMain
# re-exec children write their counters beside their parent's. Prints every
# function outside bench/, cmd/fragvet, internal/analysis and
# internal/faultinject (the analyzers, their driver and the fault injector,
# which only their own tests, `make fragvet` and the crash sweeps run) that
# both left at 0.0 % — reached by no workload, command, table or daemon path
# — and then their count; then, per package outside those four, the
# statements neither driver reached and the package's total, and the sums,
# which track unreached code below the function level. Each driver runs
# three times and a statement counts as reached when any run reached it:
# both reach some statements only on timing (allocd's coalescing of
# updates under the benchmark's clock, a daemon solve canceled mid-search
# at a test's teardown). A single run moved the count by about ±3 between
# runs of one tree; the union of three still moves by a few statements
# (ROADMAP 19(c)). ~4 min on two cores. Not part of `make check`.
traffic:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; mkdir "$$dir/cov"; \
	$(GO) build -cover -coverpkg=./... -o "$$dir/bench" ./bench || exit $$?; \
	for i in 1 2 3; do GOCOVERDIR="$$dir/cov" "$$dir/bench" trace -seed 1 -out "$$dir/out$$i" >"$$dir/log" 2>&1 || { cat "$$dir/log"; exit 1; }; done; \
	$(GO) tool covdata textfmt -i="$$dir/cov" -o "$$dir/bench.cov" || exit $$?; \
	$(GO) test -count=3 -cover -coverpkg=./... -coverprofile="$$dir/tests.cov" \
		./cmd/... ./internal/experiments ./internal/service >"$$dir/log" 2>&1 || { cat "$$dir/log"; exit 1; }; \
	{ cat "$$dir/bench.cov"; tail -n +2 "$$dir/tests.cov"; } >"$$dir/all.cov"; \
	$(GO) tool cover -func="$$dir/all.cov" | \
		awk '$$NF == "0.0%" && $$1 !~ /^fragalloc\/(bench|cmd\/fragvet|internal\/analysis|internal\/faultinject)\// { print $$1, $$2; c++ } \
			END { printf "%6d functions at 0.0 %%\n", c }'; \
	awk '$$1 != "mode:" { n[$$1] = $$2; if ($$3 > 0) hit[$$1] = 1 } \
		END { for (b in n) { d = b; sub(/\/[^\/]*$$/, "", d); \
				if (d ~ /^fragalloc\/(bench|cmd\/fragvet|internal\/analysis|internal\/faultinject)(\/|$$)/) continue; \
				tot[d] += n[b]; t += n[b]; if (!(b in hit)) { un[d] += n[b]; u += n[b] } } \
			for (d in tot) printf "%6d of %5d statements unreached  %s\n", un[d], tot[d], d | "sort -k6"; close("sort -k6"); \
			printf "%6d of %5d statements unreached in all\n", u, t }' "$$dir/all.cov"

# Where does one batch solve spend its CPU? Profiles TestPipelineGolden (the
# golden TPC-DS subproblems, ~10 s) into a temp dir — no source patch, and
# nothing written to the checkout — and prints pprof's top functions by flat
# and by cumulative time, all of them by cum. A layer's share is the cum row
# of its entry point, e.g. (*trimmer).trim for the trim. A failing golden
# still prints its profile, so a change that moves the trajectory can be
# profiled before it re-records. Not part of `make check`.
profile:
	@dir=$$(mktemp -d); trap 'rm -rf "$$dir"' EXIT; \
	$(GO) test -count=1 -run '^TestPipelineGolden$$' -cpuprofile "$$dir/cpu.prof" -o "$$dir/core.test" ./internal/core; \
	[ -s "$$dir/cpu.prof" ] || exit 1; \
	echo "== by flat"; $(GO) tool pprof -top -nodecount=30 "$$dir/core.test" "$$dir/cpu.prof" 2>/dev/null; \
	echo "== by cum"; $(GO) tool pprof -top -cum -nodecount=0 "$$dir/core.test" "$$dir/cpu.prof" 2>/dev/null

# Paired benchmark runs for a change that claims a gain: the parent revision
# PARENT against HEAD, PAIRS runs of each side per gated workload of
# BENCHMARK.json (WORKLOADS overrides the list), alternating which side runs
# first, each from a `git archive` of its revision in a temp dir. Prints each
# gated metric's medians and quartiles, the pairs the change won, each side's
# failed operations and whether the gain rule holds (the change fails no more
# often than the parent, wins nine pairs in ten, and its median gain is larger
# than the parent's interquartile range). On the two-core box the two builds
# take ~1 min and an allocd_drift pair ~0.5 min (two pairs: 2 min 3 s in
# all). Not part of `make check`.
PAIRS ?= 10
benchpairs:
	@[ -n "$(PARENT)" ] || { echo "usage: make benchpairs PARENT=<rev> [PAIRS=N]"; exit 2; }
	@bash tools/benchpairs.sh $(PARENT) $(PAIRS)
