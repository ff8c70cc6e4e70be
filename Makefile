# Development targets for the MARAS workspace.
#
# `make verify` is the pre-merge gate: formatting, lints and rustdoc
# warnings as errors, and the release build + every workspace crate's tests
# (which include the serve crate's ephemeral-port HTTP integration tests).
# Clippy and rustdoc are scoped to the first-party crates; the vendored
# dependency shims under vendor/ are formatted but not lint-clean by
# contract.

FIRST_PARTY = -p maras -p maras-bench -p maras-core -p maras-evidence \
              -p maras-faers -p maras-format -p maras-mcac -p maras-mining \
              -p maras-obs -p maras-rules -p maras-serve -p maras-signals \
              -p maras-study -p maras-tidset -p maras-viz

.PHONY: verify fmt fmt-check clippy doc-check test obs-test logs-test \
        serve-test evidence-test format-test signals-test mcac-test \
        tidset-test clean-test chaos \
        snapshot trace bench

verify: fmt-check clippy doc-check test obs-test logs-test serve-test \
        evidence-test format-test signals-test mcac-test tidset-test \
        clean-test chaos

fmt:
	cargo fmt

fmt-check:
	cargo fmt --check

clippy:
	cargo clippy $(FIRST_PARTY) --all-targets -- -D warnings

# Broken or ambiguous intra-doc links fail the gate, so a deleted item
# cannot leave a dangling link behind.
doc-check:
	RUSTDOCFLAGS="-D warnings" cargo doc --no-deps $(FIRST_PARTY)

test:
	cargo build --release
	cargo test -q --workspace

# The observability layer on its own: obs crate unit tests (tracer,
# registry, exposition, trace export), the Prometheus golden file, and
# the cross-layer span determinism suite.
obs-test:
	cargo test -q -p maras-obs
	cargo test -q -p maras-serve --test prometheus_golden
	cargo test -q --test observability

# The flight recorder on its own: the structured-log unit tests (ring,
# levels, JSON lines, panic hook) and the end-to-end correlation suite —
# a shed, a timeout, a panic, and a slow request must each surface in
# /debug/logs and /debug/requests under the id the client saw in
# x-maras-request-id.
logs-test:
	cargo test -q -p maras-obs log::
	cargo test -q -p maras-serve --test debug_endpoints

# The server lifecycle test on its own: boots on an ephemeral port,
# exercises every endpoint, and hot-swaps the snapshot mid-test; then
# the generation race: 200 swaps under a reader thread, after each of
# which every key the reader rendered must answer with the new quarter.
serve-test:
	cargo test -q -p maras-serve --test server_integration
	cargo test -q -p maras-serve --test swap_race

# The evidence layer end to end: the archive's differential suite (disk
# postings must reproduce the in-memory covers byte-for-byte), the
# corrupt-archive suite (typed refusals, never panics), the HTTP
# drill-down endpoints, and a real `evidence build` + `evidence check`
# round trip through the CLI.
evidence-test:
	cargo test -q -p maras-evidence
	cargo test -q -p maras-serve --test evidence_endpoints
	cargo run -q --release --bin maras -- generate --out target/evidence-data --reports 2000
	cargo run -q --release --bin maras -- evidence build --dir target/evidence-data \
		--quarter 2014Q1 --out target/evidence-data/2014Q1.evid
	cargo run -q --release --bin maras -- evidence check \
		--archive target/evidence-data/2014Q1.evid

# The shared on-disk format end to end: the format crate's unit tests
# (header, bounded cursor, durable atomic write), the mutation sweep over
# both files (every truncation and length lie under a recomputed checksum
# must load or get a typed error, within a heap bound), the MARASNAP
# store tests (round trip, and the typed refusals of a context mask past
# its target's drugs, and of target counts, a case-id count or context
# counts no report set could produce),
# the JSON-identity suite (every /cluster/N of a built and a reloaded
# snapshot equals the body rendered from the analysis itself), the
# corrupt-archive suite, and a CLI round trip that writes a snapshot and
# an archive and verifies both.
format-test:
	cargo test -q -p maras-format
	cargo test -q --test format_mutation
	cargo test -q -p maras-serve --lib store::
	cargo test -q -p maras-serve --test json_identity
	cargo test -q -p maras-evidence --test corrupt
	cargo run -q --release --bin maras -- generate --out target/format-data --reports 2000
	cargo run -q --release --bin maras -- snapshot --dir target/format-data \
		--quarter 2014Q1 --out target/format-data/2014Q1.snap \
		--evidence target/format-data/2014Q1.evid
	cargo run -q --release --bin maras -- serve --snapshot target/format-data/2014Q1.snap \
		--evidence target/format-data/2014Q1.evid --check
	cargo run -q --release --bin maras -- evidence check \
		--archive target/format-data/2014Q1.evid

# The signal-scoring layer end to end: the signals crate's unit +
# property suites (Haldane–Anscombe corrections, checked tables, EBGM
# and IC bounds), and the engine differential suite
# proving batch scores bit-identical to the legacy per-rule path across
# quarters, ingest modes, and thread counts.
signals-test:
	cargo test -q -p maras-signals
	cargo test -q --test signals_differential

# The MCAC layer end to end: the rules crate's suites (the rule space and
# the targets whose counts it reads from the mining pass's support index),
# the mcac crate's unit + property suites (every cluster built from
# `rule_space`'s counts against a per-probe oracle over a tiny alphabet
# where targets share ADR sets and drug subsets, at min_support 1-3 and 1
# or 2 mining threads), the MCAC differential suite proving every ranked
# cluster's contextual counts, level order and interaction contrast
# identical to per-probe database counts across quarters, strict and
# faulty lenient ingest, and 1/2/4 threads, and the ranking suite.
mcac-test:
	cargo test -q -p maras-rules
	cargo test -q -p maras-mcac
	cargo test -q --test mcac_differential
	cargo test -q --test ranking_and_baselines

# The set-algebra substrate end to end: the tidset crate's unit +
# property suites (every kernel vs a naive BTreeSet model across
# array/bitmap/mixed boundaries) and its allocation test
# (`crates/tidset/tests/alloc.rs`: the counts allocate nothing, and a
# single-chunk intersect reserves its output up front), then the rewire
# differential suite proving support counting, score marginals, /search
# narrowing, and evidence covers byte-identical to the scalar baselines
# at 1/2/4 threads.
tidset-test:
	cargo test -q -p maras-tidset
	cargo test -q --test tidset_differential

# The cleaning layer end to end: the faers crate's unit + property suites
# (the banded Levenshtein check against the full DP, the spelling index
# against a linear scan over a tiny alphabet where distance ties are
# common), the cleaning properties, and the spelling differential suite
# proving the symmetric-delete index returns the brute-force nearest term
# for every distinct drug string of several faulty seeded years, at
# radius 0, 1 and 2.
clean-test:
	cargo test -q -p maras-faers
	cargo test -q --test clean_properties
	cargo test -q --test spell_differential

# The chaos suite: seeded misbehaving clients (slowloris, header floods,
# aborts, connection floods, panic routes, drain races) against a live
# server, with exact shed/timeout/panic ledgers. Single-threaded so the
# engineered queue states stay deterministic; hard timeout so a hung
# server fails the gate instead of wedging it.
chaos:
	timeout 300 cargo test -q -p maras-serve --test chaos -- --test-threads=1

# Build a demo snapshot end-to-end: synthesize a corpus, mine it, and
# write the indexed binary snapshot `maras serve` loads.
snapshot:
	cargo run -q --release --bin maras -- generate --out target/demo-data --reports 5000
	cargo run -q --release --bin maras -- snapshot --dir target/demo-data \
		--quarter 2014Q1 --out target/demo-data/2014Q1.snap
	cargo run -q --release --bin maras -- serve \
		--snapshot target/demo-data/2014Q1.snap --check

# End-to-end observability demo: synthesize a year, run it with span
# tracing, and leave a Chrome trace (open in chrome://tracing or
# Perfetto) plus the span-tree table on stderr.
trace:
	cargo run -q --release --bin maras -- generate --out target/trace-data --reports 5000
	cargo run -q --release --bin maras -- year --dir target/trace-data \
		--trace target/trace-data/trace.json --timings

# The kernels perfbench cannot isolate from a whole pass and the
# observability overhead guards -> BENCH_kernels.json: tid-set regimes
# against the scalar count (≥2x dense floor, sparse within 10%), the cost
# of each score and the 1-thread engine against a full transaction scan
# (≥5x floor), log recording (5% or 20 us) and span tracing (5% or
# 500 us), and each thread knob at 1 against 2 threads (reported, not
# asserted). Runs at the default (paper) scale, where the floors are
# defined; the binary asserts each of them.
bench:
	cargo run -q --release -p maras-bench --bin bench_kernels
