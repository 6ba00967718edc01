GO ?= go

# Where ci-store's phase report lands (uploaded as a workflow artifact).
BENCH_OUT ?= /tmp/qgear-bench
# Scratch directory (circuit file, store, both outputs) of the warm-restart check.
WARMSTART_DIR ?= /tmp/qgear-warmstart
# Coverage profile and floor for internal/observable (near-dead code
# until PR 5; the floor keeps the expectation pathway exercised).
COVER_OUT ?= /tmp/qgear-observable-cover.out
OBSERVABLE_COVER_FLOOR ?= 85

.PHONY: build vet fmt-check loc test test-fresh check cover-observable serve \
	bench-compare ci-names ci-wired ci-load ci-warmstart ci-chaos \
	ci-scaling ci-sweep ci-store ci-oneproc ci-fuzz ci-portable clean

# run-selected is how every ci-* gate picks tests by name: a fresh,
# race-enabled `go test -run '$(1)' $(2)` with extra flags $(3) and
# environment $(4) — but only after `go test -list` has shown that each
# `|` alternative of the pattern still selects at least one test in
# those packages, so renaming or deleting a test fails its gate instead
# of silently dropping out of it.
define run-selected
@listed="$$($(GO) test -list . $(2))" || { echo "$$listed"; exit 1; }; \
for alt in $$(echo '$(1)' | tr '|' ' '); do \
	echo "$$listed" | grep -E '^(Test|Fuzz|Example)' | grep -Eq -e "$$alt" || \
		{ echo "ci gate: -run alternative '$$alt' selects no test in $(2)"; exit 1; }; \
done
$(4) $(GO) test -race -count=1 $(3) -run '$(1)' $(2)
endef

build:
	$(GO) build ./...

vet:
	$(GO) vet ./...

# gofmt cleanliness: fail listing the offending files.
fmt-check:
	@files="$$(gofmt -l .)"; if [ -n "$$files" ]; then \
		echo "gofmt needed on:"; echo "$$files"; exit 1; fi

# ROADMAP aim 2's metric: lines outside benchmark/ (which is its own
# module and its own budget), non-test and test. Assembly (*.s) is
# non-test code, counted with the Go and shown beside it. Then the
# non-test lines (Go and assembly) of each package under internal/.
loc:
	@count() { find . -not -path './benchmark/*' -not -path './.bench_build/*' "$$@" -print0 | xargs -0 -r cat | wc -l; }; \
	go=$$(count -name '*.go' -not -name '*_test.go'); asm=$$(count -name '*.s'); \
	printf 'non-test LoC:    %d (Go %d, assembly %d)\ntest Go LoC:     %d\n' "$$((go + asm))" "$$go" "$$asm" "$$(count -name '*_test.go')"; \
	for d in $$(find internal -name '*.go' -not -name '*_test.go' -exec dirname {} \; | sort -u); do \
		printf '  %-32s %6d\n' "$$d" "$$(find $$d -maxdepth 1 \( -name '*.s' -o -name '*.go' -not -name '*_test.go' \) -print0 | xargs -0 cat | wc -l)"; \
	done

test: vet
	$(GO) test -race ./...

# Fresh (uncached) race pass over the concurrency-heavy suites
# (observable/backend joined in PR 5: term-parallel and chunk-parallel
# expectation evaluation share one read-only state across goroutines).
test-fresh:
	$(GO) test -race -count=1 ./internal/mgpu/... ./internal/service/... \
		./internal/kernel/... ./internal/store/... ./internal/observable/... \
		./internal/backend/... ./internal/telemetry/...

# The tier-1 gate: plain build + test, as CI runs it. CI calls this
# target (not raw go commands), so the gate is defined exactly once.
# The observable coverage floor rides along: the expectation pathway's
# core package must stay exercised, not decay back into dead code.
check: cover-observable
	$(GO) build ./... && $(GO) test ./...

# Coverage floor for internal/observable (fails below
# OBSERVABLE_COVER_FLOOR percent). The package's ~1s suite runs once
# more inside the plain `go test ./...` (coverage builds don't share
# the test cache) — accepted so the tier-1 gate stays one target.
cover-observable:
	@$(GO) test -coverprofile=$(COVER_OUT) ./internal/observable > /dev/null
	@total=$$($(GO) tool cover -func=$(COVER_OUT) | awk '/^total:/ { sub(/%/, "", $$3); print $$3 }'); \
	awk -v t="$$total" -v floor=$(OBSERVABLE_COVER_FLOOR) 'BEGIN { \
		if (t + 0 < floor) { printf "internal/observable coverage %.1f%% is below the %d%% floor\n", t, floor; exit 1 } \
		printf "internal/observable coverage %.1f%% (floor %d%%)\n", t, floor }'

serve: build
	$(GO) run ./cmd/qgear serve -addr :8042

# The regression gate: the repository's one benchmark (benchmark/,
# BENCHMARK.json) on BASE and on the work tree, same host, back to back,
# then its own --compare — which fails on a gated allocation metric
# beyond its bound, on any failed op or failed oracle, or on an
# exact-repeat counter that moved, and never on a wall-clock ratio. The
# benchmark itself must be the same on both sides, so a difference under
# benchmark/ or in BENCHMARK.json refuses the run. BASE is checked out
# as a git worktree under the git-ignored .bench_build/ (removed again
# on every exit); both summaries stay there for upload.
bench-compare:
	@test -n "$(BASE)" || { echo "usage: make bench-compare BASE=<rev>"; exit 2; }
	@moved="$$(git diff --name-only $(BASE) -- benchmark BENCHMARK.json && \
		git ls-files --others --exclude-standard -- benchmark)" || exit 1; \
	if [ -n "$$moved" ]; then \
		echo "bench-compare: the benchmark differs between $(BASE) and the work tree:"; \
		echo "$$moved" | sed 's/^/  /'; \
		echo "a benchmark change is a PR of its own; nothing can be compared across it"; exit 1; fi
	@set -e; mkdir -p .bench_build; base=.bench_build/base; \
	trap 'git worktree remove --force '$$base' 2>/dev/null; git worktree prune' EXIT; \
	git worktree remove --force $$base 2>/dev/null || true; \
	git worktree add --quiet --detach $$base $(BASE); \
	bash $$base/benchmark/run.sh --out .bench_build/base.json; \
	bash benchmark/run.sh --out .bench_build/head.json; \
	bash benchmark/run.sh --compare .bench_build/base.json .bench_build/head.json

# A test name cannot silently disappear: every Test, Fuzz, Example and
# Benchmark name that `go test -list` shows in BASE (checked out as a git
# worktree under the git-ignored .bench_build/, removed again on every
# exit, as bench-compare does) must still be listed in the work tree,
# unless a line this change adds to CHANGES.md accounts for it with a
# marker: `removed: <package>/<Name>` for a test deleted with its code,
# `renamed: <package>/<Name> -> <package>/<NewName>` for one whose new
# name the work tree lists (backquotes around a name are allowed). A
# name that is only mentioned does not count; a test that merely
# vanishes fails here. Both lists stay in .bench_build/.
ci-names:
	@test -n "$(BASE)" || { echo "usage: make ci-names BASE=<rev>"; exit 2; }
	@set -e; mkdir -p .bench_build; base=.bench_build/names-base; \
	trap 'git worktree remove --force '$$base' 2>/dev/null; git worktree prune' EXIT; \
	git worktree remove --force $$base 2>/dev/null || true; \
	git worktree add --quiet --detach $$base $(BASE); \
	list() { (cd "$$1" && $(GO) test -list '.*' ./...) > "$$2.raw" || { cat "$$2.raw"; exit 1; }; \
		awk '/^ok /{ for (i = 1; i <= n; i++) print $$2 "/" names[i]; n = 0; next } \
			/^(Test|Fuzz|Example|Benchmark)/{ names[++n] = $$1 }' "$$2.raw" | LC_ALL=C sort -u > "$$2"; }; \
	list $$base .bench_build/names-base.txt; list . .bench_build/names-head.txt; \
	added="$$(git diff $(BASE) -- CHANGES.md | grep '^+' | grep -v '^+++ ' || true)"; \
	gone=0; for name in $$(LC_ALL=C comm -23 .bench_build/names-base.txt .bench_build/names-head.txt); do \
		new="$$(echo "$$added" | sed -nE "s%.*renamed: \`?$$name\`? -> \`?([A-Za-z0-9_/.]+).*%\1%p" | head -1)"; \
		if echo "$$added" | grep -Eq -- "removed: \`?$$name(\`|[^A-Za-z0-9_/]|\$$)"; then echo "ci-names: $$name removed, as CHANGES.md says"; \
		elif [ -n "$$new" ] && grep -qxF -- "$$new" .bench_build/names-head.txt; then echo "ci-names: $$name renamed to $$new, as CHANGES.md says"; \
		else echo "ci-names: $$name is listed in $(BASE) and not here"; gone=1; fi; \
	done; \
	test $$gone = 0 && echo "ci-names: all $$(wc -l < .bench_build/names-base.txt) names of $(BASE) accounted for"

# Gates that cannot rot: every ci-* target of this Makefile must be run
# by the workflow, so a gate that is added here and never wired fails
# CI the day it is added instead of silently never running. So must
# every fuzz target of the module be fuzzed: a func Fuzz… without its
# ci-fuzz leg fails here (its seed corpus alone runs under go test). The
# same holds for the one front door: qgear/cmd/qgear is the module's
# only main package, so a second binary fails CI the day it is added.
ci-wired:
	@for t in $$(grep -oE '^ci-[a-z0-9-]+:' Makefile | tr -d ':'); do \
		grep -Eq "run: make ([a-z0-9-]+ )*$$t( |\$$)" .github/workflows/ci.yml || \
			{ echo "ci-wired: target $$t is not run by .github/workflows/ci.yml"; unwired=1; }; \
	done; test -z "$$unwired"
	@for f in $$(grep -rlE --include='*_test.go' '^func Fuzz' . | grep -v '^\./benchmark/'); do \
		for fn in $$(grep -oE '^func Fuzz[A-Za-z0-9_]*' $$f | cut -d' ' -f2); do \
			grep -Eq "run-selected,$$fn,$$(dirname $$f)/,-fuzz $$fn[ )]" Makefile || \
				{ echo "ci-wired: $$fn ($$f) has no ci-fuzz leg"; unwired=1; }; \
		done; \
	done; test -z "$$unwired"
	@mains="$$($(GO) list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./... | sed '/^$$/d')" || exit 1; \
	test "$$mains" = qgear/cmd/qgear || \
		{ echo "ci-wired: main packages other than qgear/cmd/qgear:"; echo "$$mains"; exit 1; }

# CI service load check: 50 concurrent HTTP clients of mixed
# simulate/expectation jobs against a deliberately tight byte budget
# and a live store, so eviction, spill, and store-hit paths all run
# under real concurrency. It is the observability gate too: the test
# fails when /metrics is missing a required family or the scraped job
# totals disagree with /v1/stats. The submit path rides along: the
# decoder's allocation bound on serve_mix's three envelope shapes, no
# decoded job sharing bytes with its pooled body buffer under
# concurrent submitters, and the 413 limit with and without a declared
# length; so does the response path: the result and long-poll handlers'
# allocation bound on serve_mix's simulate shape. BenchmarkSubmitDecode
# and BenchmarkResultRender run once and gate nothing.
ci-load: build
	$(call run-selected,TestLoadMixedTraffic|TestSubmitDecodeAllocBound|TestSubmitBodyNotRetained|TestHTTPBodyTooLarge|TestResultHandlerAllocBound,./internal/service/)
	$(GO) test -run '^$$' -bench 'SubmitDecode|ResultRender' -benchtime=1x ./internal/service/

# Workers-axis scaling smoke: the lane-kernel bit-identity fuzz suites
# and the engine table (every executor at 1–4 and 8 workers, and at 1
# and 4 per rank, against internal/oracle), race-enabled and uncached. Worker
# count must never change an amplitude bit; wall-clock scaling is reported by
# benchmark/ (statevec.scaling_speedup_w*), never gated. The plan IR's
# size and compile-allocation contract rides along (a 96-byte op, a
# 24-byte segment header, a shard base instead of per-rank op copies),
# as do the distributed relabeling's reader rule and shapes, the split
# of a 13- to 16-qubit state that fits one tile into two (its plan
# shapes, and probabilities, ⟨H⟩ and rebound sweep points bit-equal to
# aer's per-gate run at 1–3 workers), a warmed sampled run allocating
# only its probabilities and the Counts it returns, and distributed ⟨H⟩: bit-equal to
# one device at 2–16 ranks (1e-12 at 32) and, on TFIM-20 at 1–16
# ranks, at most 2 + log2(ranks) sweeps of the root shard and one
# exchange per rank for each rank part of a flip mask. Readout through
# a pending permutation rides along too: bit-equal to a materialized
# readout on every layout, width and worker count, its walk cached per
# permutation, the grouped and shard Pauli evaluator's seed corpus
# against its reference loop, and the Pauli lane primitive's against its
# Go loop. So does the one dispatcher, statevec.ParallelFor: every index
# covered once, nested calls (more outer chunks than pool workers)
# finishing, a chunk's panic re-raised on the caller, and a record's
# generation wrapping at 2^32 — and backend's per-device budget rule
# built on it (RunEachBudget). So does the state's support: never
# wrong after any plan segment, and skipping changes no amplitude bit
# at any schedule or worker count (SupportNeverLies, SupportSkipSameBits).
# So does the shot draw handed to workers: a seeded run's counts at
# every nvidia and nvidia-mgpu worker budget
# (SampledCountsIgnoreTheWorkerBudget), the sampler's own at 1, 2, 4
# and 7 workers (CountsIgnoreWorkers) and pinned by hash
# (SeededCountsPinned); and a warmed fanned-out
# relayout allocating nothing (MaterializePermRecyclesItsJob).
# The plan, lane-kernel, Pauli evaluator, readout, mgpu,
# small-state schedule and sampler micro-benchmarks run one iteration
# each so they cannot rot — their numbers gate
# nothing, BENCHMARK.json does (the sampler's DRAM-sized shapes are
# there to be read).
ci-scaling: build
	$(call run-selected,BitIdentity|EnginesMatchOracle|TileOpSize|SegmentSize|PlanCompileAllocBound|PerGatePlan|PerGatePlanAllocBound|SmallStatePlanShape|SplitStateBitIdentical|SplitStateExpectationBitIdentical|TileRunBaseMatchesFullState|PlanReaderRelabelRule|RankBitRelabelCases|WarmedRunAllocatesWhatItReturns|ExpectationMatchesSingleDevice|TFIMRanksShape|ProbabilitiesReadThroughPerm|PermTablesCached|FuzzExpPauliGroup|FuzzPauliLanes|FuzzScaleTable|PhaseTableMatchesPerIndex|TileRunPassesOverTableCap|CheckGroupsRefuses|DiagGroupRule|UngroupedPlansUnchanged|GroupedPlansBitIdentical|GroupedPlansMatchPerGate|PlanReaderGroupRule|RunSweepGroupedDiagonals|ParallelForCoverage|ParallelForNesting|ParallelForPanic|ParallelForGenerationWrap|RunEachBudget|SupportNeverLies|SupportSkipSameBits|SampledCountsIgnoreTheWorkerBudget|CountsIgnoreWorkers|SeededCountsPinned|MaterializePermRecyclesItsJob,./internal/statevec/ ./internal/kernel/ ./internal/mgpu/ ./internal/sampling/ ./internal/backend/)
	$(GO) test -run '^$$' -bench 'PlanQCrank|PlanQFT21|ExecuteQFT21|PlanPerGate|TileRun|LanePrimitives|ExpPauliGroup|^BenchmarkReadout$$|ExecutePlanQCrank' -benchtime=1x \
		./internal/statevec/ ./internal/kernel/ ./internal/mgpu/
	$(GO) test -run '^$$' -bench SmallStateSchedule -benchtime=1x ./internal/backend/
	$(GO) test -run '^$$' -bench 'BenchmarkSample$$' -benchtime=1x ./internal/sampling/

# One P: the whole suite with GOMAXPROCS=1. The sweep pool, the grouped
# expectation sweep's fan-out and its scratch free list, the service's
# worker pool (whose non-blocking batch drain must not starve the
# submitter) and every mpi rendezvous must make progress and stay
# bit-identical when only one goroutine runs at a time. The second pass
# adds a small soft memory limit: a collector running almost
# continuously must change no result and hang nothing either.
ci-oneproc: build
	GOMAXPROCS=1 $(GO) test -count=1 ./...
	GOMAXPROCS=1 GOMEMLIMIT=512MiB $(GO) test -count=1 ./...

# Fixed-budget native fuzzing (seed corpus first, then mutation; a
# failing input lands in testdata/fuzz and fails the gate): the grouped
# Pauli evaluator, on the whole register and on a rank shard, against
# the per-index reference loop, and the tile and full-state lane kernels
# against their complex128 references — both on the AVX bodies and on
# the Go loops — then the lane primitives' assembly bodies against
# their Go loops (on amd64 the AVX
# body of scaleWindows, scaleTable, pairReal and pauliChunks where the
# CPU has it, and the SSE2 body of pairComplex) — the three
# amplitude kernels, the Pauli chunk sums, then the phase-table scale
# alone and through its tile enumeration — then MaterializePerm's
# one-pass relayout against one bit-swap sweep per pair (amplitude bits
# and support, every layout kind), then the artifact envelope,
# every payload decoder behind it and the store's manifest-journal
# replay — never a panic, allocation bounded by the
# input's length, and whatever a decoder accepts re-encodes to the
# bytes it was decoded from (a torn journal's records to a prefix) — then
# the sampler's invariants (exactly the shots drawn, never a
# zero-probability outcome, the same counts at 1, 2, 4 and 7 workers,
# invalid input an error), then the three executors against the naive
# oracle (fuzzer-chosen width, world, tile and gate soup: probabilities
# and ⟨H⟩ of a random Hamiltonian with factors on rank bits exact among
# themselves and 1e-12 to internal/oracle, total probability 1), then the
# two readers of a job submission's untrusted bytes: the POST /v1/jobs
# envelope decoder against the reflection decode it replaced (same
# verdict, same job) and the QASM parser (export∘parse round trip) — and
# the op path's response renderer against encoding/json (the same bytes,
# or both refusing a value).
# go test fuzzes one target of one package per run, hence one leg each;
# minimization is capped because its default budget (60 s per new
# input) would eat a 10 s leg whole.
FUZZ_DECODER = -fuzztime 10s -fuzzminimizetime 100x
ci-fuzz: build
	$(call run-selected,FuzzExpPauliGroup,./internal/statevec/,-fuzz FuzzExpPauliGroup -fuzztime 20s)
	$(call run-selected,FuzzKernelBitIdentity,./internal/statevec/,-fuzz FuzzKernelBitIdentity $(FUZZ_DECODER))
	$(call run-selected,FuzzLanePrimitives,./internal/statevec/,-fuzz FuzzLanePrimitives $(FUZZ_DECODER))
	$(call run-selected,FuzzPauliLanes,./internal/statevec/,-fuzz FuzzPauliLanes $(FUZZ_DECODER))
	$(call run-selected,FuzzScaleTable,./internal/statevec/,-fuzz FuzzScaleTable $(FUZZ_DECODER))
	$(call run-selected,FuzzMaterializePerm,./internal/statevec/,-fuzz FuzzMaterializePerm $(FUZZ_DECODER))
	$(call run-selected,FuzzOpen,./internal/artifact/,-fuzz FuzzOpen $(FUZZ_DECODER))
	$(call run-selected,FuzzDecodePlan,./internal/kernel/,-fuzz FuzzDecodePlan $(FUZZ_DECODER))
	$(call run-selected,FuzzDecodeCompiled,./internal/backend/,-fuzz FuzzDecodeCompiled $(FUZZ_DECODER))
	$(call run-selected,FuzzUnmarshal,./internal/qpy/,-fuzz FuzzUnmarshal $(FUZZ_DECODER))
	$(call run-selected,FuzzUnmarshal,./internal/tensorenc/,-fuzz FuzzUnmarshal $(FUZZ_DECODER))
	$(call run-selected,FuzzDecodeResult,./internal/store/,-fuzz FuzzDecodeResult $(FUZZ_DECODER))
	$(call run-selected,FuzzDecodePlan,./internal/store/,-fuzz FuzzDecodePlan $(FUZZ_DECODER))
	$(call run-selected,FuzzParseManifest,./internal/store/,-fuzz FuzzParseManifest $(FUZZ_DECODER))
	$(call run-selected,FuzzSampleInvariants,./internal/sampling/,-fuzz FuzzSampleInvariants $(FUZZ_DECODER))
	$(call run-selected,FuzzEnginesMatchOracle,./internal/mgpu/,-fuzz FuzzEnginesMatchOracle $(FUZZ_DECODER))
	$(call run-selected,FuzzSubmitEnvelope,./internal/service/,-fuzz FuzzSubmitEnvelope $(FUZZ_DECODER))
	$(call run-selected,FuzzRenderResult,./internal/service/,-fuzz FuzzRenderResult $(FUZZ_DECODER))
	$(call run-selected,FuzzQASMParse,./internal/qasm/,-fuzz FuzzQASMParse $(FUZZ_DECODER))

# The portable build: the lane primitives have assembly bodies on
# amd64 only, and every other GOARCH compiles their Go loops instead
# (lanes_noasm.go). This keeps that build vetted and the statevec test
# binary linking on arm64, and runs the Go bodies as the body: 386 is
# not amd64 and runs natively on an amd64 host, so the short statevec
# suite holds them to the reference loops there. The sampler rides
# along: its seeded counts must not depend on the architecture (its
# logarithm is Go code, and every product that feeds an add is rounded
# on its own), so its short suite under 386 compares them to the hashes
# TestSeededCountsPinned holds. The arm64 assembly of both packages,
# where Go fuses a multiply and an add that no float64() conversion
# keeps apart, must hold no fused multiply-add: one in a Go loop would
# round it differently from the amd64 bodies it stands in for, one in
# the sampler its draws from their pins. The last legs build both packages for
# GOAMD64=v3, where the compiler may fuse a multiply and an add into one
# FMA wherever no float64() conversion forbids it: the one code
# generation that could round the Go loops differently from the
# assembly bodies, and a draw differently from its pin, held to them by
# the same suites. A v3 binary does not start on a CPU without every
# x86-64-v3 feature (V3_FLAGS, as /proc/cpuinfo names them; abm is
# LZCNT), so there the legs are built and not run.
V3_FLAGS = avx avx2 bmi1 bmi2 f16c fma abm movbe
PORTABLE_PKGS = ./internal/statevec/ ./internal/sampling/

ci-portable:
	GOARCH=arm64 $(GO) vet ./...
	GOARCH=arm64 $(GO) test -c -o /dev/null ./internal/statevec/
	GOARCH=386 $(GO) test -short -count=1 $(PORTABLE_PKGS)
	@for p in $(PORTABLE_PKGS); do \
		if GOARCH=arm64 $(GO) build -gcflags=-S $$p 2>&1 | grep -E 'FN?M(ADD|SUB)D'; then \
			echo "ci-portable: $$p fuses a multiply and an add on arm64 (above): round the product with float64()"; exit 1; fi; \
	done
	for p in $(PORTABLE_PKGS); do GOAMD64=v3 $(GO) test -c -o /dev/null $$p || exit 1; done
	@if (for f in $(V3_FLAGS); do grep -qw $$f /proc/cpuinfo 2>/dev/null || exit 1; done); then \
		echo 'GOAMD64=v3 $(GO) test -short -count=1 $(PORTABLE_PKGS)'; \
		GOAMD64=v3 $(GO) test -short -count=1 $(PORTABLE_PKGS); \
	else echo "ci-portable: this CPU is not x86-64-v3; the GOAMD64=v3 legs were built, not run"; fi

# Chaos acceptance: the seeded fault-injection suite, race-enabled.
# Injected disk faults, short writes, execution panics, and tight
# deadlines must leave the server serving, quarantines firing, fallback
# re-simulations bit-identical, and no job hung — the hardened-serving
# invariants, checked deterministically. The backend leg holds an mqpu
# batch's panic (backend.RunBatch) to the caller's goroutine.
ci-chaos: build
	$(GO) test -race -count=1 ./internal/faultfs/
	$(call run-selected,TestChaos,./internal/service/ ./internal/backend/,-v)

# Sweep acceptance: the compile-once property under race detection.
# The differential suites prove per-point sweep values bit-identical to
# individually-submitted jobs on all four engines (backend layer) and
# through the full service path, where the kinds tables hold every kind
# (sweep and gradient among them) to its HTTP checks, its warm restart
# from the store and its submit refusals; the 1000-point acceptance run proves a
# 1k-point TFIM sweep — plus the same 1k points resubmitted as
# individual expectation jobs — costs exactly one plan compile, via the
# plan-cache counters of /v1/stats.
ci-sweep: build
	$(call run-selected,TestRunSweep|TestRunGradient|TestPlanBind|TestStructuralFingerprint,./internal/backend/ ./internal/kernel/ ./internal/circuit/)
	$(call run-selected,TestServiceSweep|TestKindConformance|TestWarmRestartServesFromStore|TestInvalidSubmissions|TestHTTPLongPoll,./internal/service/)
	$(call run-selected,TestServiceSweepCompileOnce,./internal/service/,-v -timeout 20m,QGEAR_SWEEP_ACCEPTANCE_POINTS=1000)

# Bounded-store acceptance, race-enabled: the store and service suites
# covering on-disk GC, the manifest journal, the sharded layout, and
# the store-layer bugfix regressions — then the two-phase acceptance
# run: (1) 2000 concurrent saves against a tight byte budget, with the
# on-disk footprint audited against the budget after every wave and
# warm-restart survivors verified bit-identical; (2) a 10k-artifact
# store whose second Open must index everything from the manifest
# journal alone — zero ReadDir calls, proven by faultfs op counters.
# The phase report lands in $(BENCH_OUT)/BENCH_store.json.
ci-store: build
	$(GO) test -race -count=1 ./internal/store/
	$(call run-selected,TestChaosStoreGCFaultingDeletes|TestChaosManifestReplayAfterKill|TestStoreAdmissionSkipsCheapResults|TestWarmRestart|TestCorruptStore,./internal/service/)
	mkdir -p $(BENCH_OUT)
	$(call run-selected,TestStoreAcceptance,./internal/store/,-v -timeout 20m,QGEAR_STORE_ACCEPTANCE_N=10000 QGEAR_STORE_STATS_OUT=$(BENCH_OUT)/BENCH_store.json)

# Warm-restart acceptance, made of the product itself: two separate
# `qgear run` processes on one generated circuit file and one store
# directory. The first simulates and, closing its server, leaves every
# result on disk; the second must answer every circuit from there —
# each result line marked "(store hit)" — and print, that marker aside,
# exactly what the first printed: the recorded durations and the
# fixed-seed shot counts, line for line. The server persists results
# only, so the last line fails if the store holds any compiled plan.
ci-warmstart: build
	rm -rf $(WARMSTART_DIR)
	mkdir -p $(WARMSTART_DIR)
	$(GO) run ./cmd/qgear generate -kind random -qubits 10 -blocks 40 -count 8 -out $(WARMSTART_DIR)/circuits.qpy
	$(GO) run ./cmd/qgear run -in $(WARMSTART_DIR)/circuits.qpy -shots 256 -store-dir $(WARMSTART_DIR)/store > $(WARMSTART_DIR)/first.txt
	$(GO) run ./cmd/qgear run -in $(WARMSTART_DIR)/circuits.qpy -shots 256 -store-dir $(WARMSTART_DIR)/store > $(WARMSTART_DIR)/second.txt
	@cd $(WARMSTART_DIR) && grep -q 'target=' first.txt || { echo "ci-warmstart: the first run printed no result line"; exit 1; }; \
	if grep 'target=' second.txt | grep -v '(store hit)'; then \
		echo "ci-warmstart: the restarted process re-simulated the circuits above"; exit 1; fi; \
	sed 's/  (store hit)//' second.txt | diff first.txt - || \
		{ echo "ci-warmstart: the store answered differently from the run that filled it"; exit 1; }; \
	echo "ci-warmstart: PASS — $$(grep -c 'target=' second.txt) circuits answered from the store, output identical"
	@if find $(WARMSTART_DIR)/store -name '*.plan' | grep .; then echo "ci-warmstart: the server persisted the compiled plans above"; exit 1; fi

clean:
	$(GO) clean ./...
