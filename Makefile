# Developer entry points.  `make check` is the full pre-commit gate:
# strict-warning build, test suite, formatting (when ocamlformat is
# installed) and a lint pass over every committed example netlist.

DUNE ?= dune
LINT := $(DUNE) exec --no-build bin/cmldft.exe -- lint

.PHONY: all build test paper fmt lint-examples lint-fixtures plan-smoke report-examples telemetry-overhead diagnose-smoke compile-smoke mc-smoke watch-smoke explain-smoke campaign-parity cone-parity fixtures check perf clean

all: build

build:
	$(DUNE) build

test:
	$(DUNE) runtest

# The paper's reproduction: every table and figure of EXPERIMENTS.md
# rerun with its shape checks; the harness exits 1 when any check
# prints [MISS].
paper: build
	$(DUNE) exec --no-build bench/main.exe

# `dune build @fmt` needs ocamlformat; skip with a notice when the
# tool is missing so `make check` works on a bare switch.
fmt:
	@if command -v ocamlformat >/dev/null 2>&1; then \
	  $(DUNE) build @fmt; \
	else \
	  echo "fmt: ocamlformat not installed, skipping"; \
	fi

lint-examples: build
	$(LINT) --fail-on error examples/netlists/*.cir examples/netlists/*.bench

# Every committed fixture must stay error-free under the full rule
# set, and the pass must stay interactive-fast even on the largest
# fixture (the c432-class surrogate): the whole run is budgeted at
# one second.
lint-fixtures: build
	@start=$$(date +%s%N); \
	$(LINT) --fail-on error examples/netlists/* >/dev/null || exit 1; \
	elapsed_ms=$$((($$(date +%s%N) - start) / 1000000)); \
	echo "lint-fixtures: OK ($${elapsed_ms} ms)"; \
	if [ $$elapsed_ms -ge 1000 ]; then \
	  echo "lint-fixtures: FAILED time budget (>= 1000 ms)"; exit 1; \
	fi

# End-to-end smoke of the placement pipeline: derate the sharing
# limit, optimize both built-in scenarios, realize them on the
# transistor netlists (audited), write the plan JSON and render it
# back with `cmldft report`.
plan-smoke: build
	$(eval PLAN_DIR := $(shell mktemp -d))
	$(DUNE) exec --no-build bin/cmldft.exe -- plan --scenario chain --derate \
	  --json $(PLAN_DIR)/plan_chain8.json
	$(DUNE) exec --no-build bin/cmldft.exe -- plan --scenario adder --derate --budget 0.7
	$(DUNE) exec --no-build bin/cmldft.exe -- report $(PLAN_DIR)/plan_chain8.json
	rm -rf $(PLAN_DIR)

# The committed run manifests must stay parseable by `cmldft report`
# (they are the documented example of the manifest schema), and the
# committed event stream by `cmldft watch` (ditto for
# cml-dft-events/1).
report-examples: build
	$(DUNE) exec --no-build bin/cmldft.exe -- report examples/manifests/*.json
	$(DUNE) exec --no-build bin/cmldft.exe -- watch --once \
	  examples/manifests/campaign_x3.events.jsonl

# Disabled-tracing cost gate: the telemetry span hooks on the Newton
# hot path must amount to < 3% of the recorded chain-transient
# baseline (computed from the measured per-hook cost).  The chain
# transient's wall time is gated as its ratio to a dense-LU reference
# kernel timed in the same process, within 1.25x of that ratio in the
# last history entry, so host speed cancels out; see bench/perf.ml.
telemetry-overhead: build
	$(DUNE) exec bench/main.exe -- overhead --json BENCH_spice.json

# End-to-end smoke of the diagnosis pipeline: re-simulate the paper's
# 3 kohm pipe defect with stage + detector probes, write the JSON
# record and analog VCD, and render the record back with `cmldft
# report` (the same path that renders the committed example).
diagnose-smoke: build
	$(eval SMOKE_DIR := $(shell mktemp -d))
	$(DUNE) exec --no-build bin/cmldft.exe -- diagnose --pipe 3000 \
	  --json $(SMOKE_DIR)/diagnosis.json --vcd $(SMOKE_DIR)/diagnosis.vcd
	$(DUNE) exec --no-build bin/cmldft.exe -- report $(SMOKE_DIR)/diagnosis.json
	rm -rf $(SMOKE_DIR)

# End-to-end smoke of the .bench->CML compiler on the largest
# committed fixture: lint the gate-level netlist clean, derate a DFT
# plan for it, then compile the ~950-unknown transistor netlist and
# converge a DC operating point (exercising the fill-reducing LU
# ordering).  The operating point must start from the compiled
# design's nodeset and converge in at most 10 Newton iterations (3-4
# expected; ~55 from 0 V).  Budgeted at five seconds so the
# compile+solve path stays interactive.
compile-smoke: build
	@start=$$(date +%s%N); \
	$(LINT) --fail-on error examples/netlists/c432_surrogate.bench >/dev/null || exit 1; \
	$(DUNE) exec --no-build bin/cmldft.exe -- plan examples/netlists/c432_surrogate.bench \
	  --derate >/dev/null || exit 1; \
	out=$$($(DUNE) exec --no-build bin/cmldft.exe -- op --bench \
	  examples/netlists/c432_surrogate.bench) || exit 1; \
	echo "$$out"; \
	iters=$$(echo "$$out" | sed -n 's/^solver: \([0-9]*\) Newton iters.*/\1/p'); \
	if [ -z "$$iters" ] || [ $$iters -gt 10 ]; then \
	  echo "compile-smoke: FAILED (DC operating point took $${iters:-?} > 10 Newton iterations)"; \
	  exit 1; \
	fi; \
	elapsed_ms=$$((($$(date +%s%N) - start) / 1000000)); \
	echo "compile-smoke: OK ($${elapsed_ms} ms)"; \
	if [ $$elapsed_ms -ge 5000 ]; then \
	  echo "compile-smoke: FAILED time budget (>= 5000 ms)"; exit 1; \
	fi

# End-to-end smoke of the Monte-Carlo path at the paper's N = 45
# sharing limit: run 20 samples on two domains with a manifest, render
# it with `cmldft report`, and check that the samples' symbolic LU
# analyses were counted and that the 150-unknown Jacobian was ordered
# amd.  Budgeted at five seconds.
mc-smoke: build
	@start=$$(date +%s%N); \
	dir=$$(mktemp -d); \
	$(DUNE) exec --no-build bin/cmldft.exe -- mc -g 45 -s 20 --jobs 2 \
	  --manifest $$dir/mc.json >/dev/null || { rm -rf $$dir; exit 1; }; \
	$(DUNE) exec --no-build bin/cmldft.exe -- report $$dir/mc.json >/dev/null \
	  || { rm -rf $$dir; exit 1; }; \
	for m in solver.symbolic_factorizations solver.ordering.amd; do \
	  grep -q "\"$$m\"" $$dir/mc.json || \
	    { echo "mc-smoke: FAILED (no $$m in the manifest metrics)"; rm -rf $$dir; exit 1; }; \
	done; \
	rm -rf $$dir; \
	elapsed_ms=$$((($$(date +%s%N) - start) / 1000000)); \
	echo "mc-smoke: OK ($${elapsed_ms} ms)"; \
	if [ $$elapsed_ms -ge 5000 ]; then \
	  echo "mc-smoke: FAILED time budget (>= 5000 ms)"; exit 1; \
	fi

# End-to-end smoke of the run observatory: stream a small campaign's
# events to a JSONL file alongside its manifest, replay the stream
# with `cmldft watch --once`, feed the manifest to `cmldft report`
# over stdin, and run the cross-run trend analyzer over the perf
# history plus the fresh manifest.
watch-smoke: build
	$(eval WATCH_DIR := $(shell mktemp -d))
	$(DUNE) exec --no-build bin/cmldft.exe -- campaign --jobs 2 \
	  --events $(WATCH_DIR)/events.jsonl --manifest $(WATCH_DIR)/manifest.json >/dev/null
	$(DUNE) exec --no-build bin/cmldft.exe -- watch --once $(WATCH_DIR)/events.jsonl
	$(DUNE) exec --no-build bin/cmldft.exe -- report - < $(WATCH_DIR)/manifest.json
	$(DUNE) exec --no-build bin/cmldft.exe -- report --trend BENCH_spice.json \
	  $(WATCH_DIR)/manifest.json
	rm -rf $(WATCH_DIR)

# End-to-end smoke of the post-mortem pipeline: run a deliberately
# hard campaign (cold start, Newton capped at 12 iterations so
# marginal solves fail visibly), explain the variant with the most
# Newton iterations — the re-simulation must blame a named net for at
# least one LTE rejection and one Newton retry — write the post-mortem
# JSON and render it back with `cmldft report`.  Budgeted at five
# seconds.
explain-smoke: build
	@start=$$(date +%s%N); \
	dir=$$(mktemp -d); \
	$(DUNE) exec --no-build bin/cmldft.exe -- campaign --no-warm-start --max-iter 12 \
	  --manifest $$dir/campaign.json >/dev/null || { rm -rf $$dir; exit 1; }; \
	$(DUNE) exec --no-build bin/cmldft.exe -- explain $$dir/campaign.json \
	  > $$dir/postmortem.txt || { rm -rf $$dir; exit 1; }; \
	grep -q "LTE pressure concentrates on" $$dir/postmortem.txt || \
	  { echo "explain-smoke: FAILED (no LTE blame line)"; rm -rf $$dir; exit 1; }; \
	grep -q "Newton gave up" $$dir/postmortem.txt || \
	  { echo "explain-smoke: FAILED (no Newton retry blame line)"; rm -rf $$dir; exit 1; }; \
	$(DUNE) exec --no-build bin/cmldft.exe -- explain $$dir/campaign.json \
	  --json $$dir/postmortem.json >/dev/null || { rm -rf $$dir; exit 1; }; \
	$(DUNE) exec --no-build bin/cmldft.exe -- report $$dir/postmortem.json >/dev/null \
	  || { rm -rf $$dir; exit 1; }; \
	rm -rf $$dir; \
	elapsed_ms=$$((($$(date +%s%N) - start) / 1000000)); \
	echo "explain-smoke: OK ($${elapsed_ms} ms)"; \
	if [ $$elapsed_ms -ge 5000 ]; then \
	  echo "explain-smoke: FAILED time budget (>= 5000 ms)"; exit 1; \
	fi

# Scheduling leaves results alone: each campaign on two domains and
# unbatched on one must print byte-identical per-defect lines and
# summary.  Two legs: the default chain campaign (no variant takes a
# cone or a cut) and the c432 surrogate at 400 MHz, whose variants
# run on the DUT's cut and cone (26 cut, 51 cone; about 7 s and 11 s
# on two cores).  The header line (job count) and the utilization
# table (wall times) are excluded.
campaign-parity: build
	@dir=$$(mktemp -d); \
	for leg in chain c432; do \
	  case $$leg in \
	    chain) args="" ;; \
	    c432) args="examples/netlists/c432_surrogate.bench --freq 400e6" ;; \
	  esac; \
	  $(DUNE) exec --no-build bin/cmldft.exe -- campaign $$args --jobs 2 > $$dir/batched.txt \
	    || { rm -rf $$dir; exit 1; }; \
	  $(DUNE) exec --no-build bin/cmldft.exe -- campaign $$args --jobs 1 --no-batch \
	    > $$dir/unbatched.txt || { rm -rf $$dir; exit 1; }; \
	  for f in batched unbatched; do sed '1d;/^utilization/,$$d' $$dir/$$f.txt > $$dir/$$f.body; done; \
	  if [ -s $$dir/batched.body ] && cmp -s $$dir/batched.body $$dir/unbatched.body; then \
	    echo "campaign-parity: $$leg OK ($$(grep -c . $$dir/batched.body) lines)"; \
	  else \
	    echo "campaign-parity: $$leg FAILED (batched vs unbatched output differs)"; \
	    diff $$dir/batched.body $$dir/unbatched.body; rm -rf $$dir; exit 1; \
	  fi; \
	done; \
	rm -rf $$dir

# The cut and cone paths must not change a classification: every
# defect site of the c432 surrogate's default DUT, simulated as the
# campaign does (its cone's cut at the healing depth, the cone when
# the cut aborts) and on the whole faulty netlist, must get the same
# classes, and every site measured on the cut must read the full
# netlist's final output within the cut tolerance.  Prints each
# site's path, measurement deviation, supply current, boundary-source
# draw and cut-net deviation, then each path's Newton iterations, LU
# refactorizations and chord steps; about 40 s on two cores.
cone-parity: build
	$(DUNE) exec --no-build bench/main.exe -- --jobs 2 cone-parity

# Regenerate the committed decks in examples/netlists/ from the cell
# library (they are kept in git so `lint-examples` needs no codegen).
fixtures: build
	$(DUNE) exec examples/write_lint_fixtures.exe

# Kernel benchmarks on one domain; appends an entry (with the host's
# core count) to the BENCH_spice.json history, prints the history's
# trend table (the one `cmldft report --trend` prints), and fails when
# any kernel is more than 25% slower than in the last earlier entry
# recorded on as many cores.  Opt into it from `make check` with
# CHECK_PERF=1 (it reruns every benchmark, minutes not seconds, so it
# is not part of the default gate).
perf: build
	$(DUNE) exec bench/main.exe -- perf --json BENCH_spice.json --check

check: build test paper fmt lint-examples lint-fixtures plan-smoke report-examples diagnose-smoke compile-smoke mc-smoke watch-smoke explain-smoke campaign-parity cone-parity telemetry-overhead
ifeq ($(CHECK_PERF),1)
	$(MAKE) perf
endif
	@echo "check: OK"

clean:
	$(DUNE) clean
