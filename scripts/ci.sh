#!/usr/bin/env bash
# The full CI gate, runnable locally. Everything must pass offline —
# the workspace has no crates.io dependencies by policy (DESIGN.md).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --all -- --check

# Ratchets: counts over the runtime paths (everything above
# `#[cfg(test)]`, comments aside) that may only go down. Lower a limit
# when you remove a site; never raise one.
count_sites() { # <regex> <file>...
    local pattern=$1
    shift
    awk -v pattern="$pattern" '
        FNR == 1 { in_tests = 0 }
        /^#\[cfg\(test\)\]/ { in_tests = 1 }
        in_tests || /^[[:space:]]*\/\// { next }
        { n += gsub(pattern, "") }
        END { print n + 0 }
    ' "$@"
}

ratchet() { # <what> <max> <count>
    echo "==> $1 ratchet: $3 (max $2)"
    if (( $3 > $2 )); then
        echo "$1 ratchet: $3 sites, max $2" >&2
        exit 1
    fi
}

# Panic sites: `.unwrap()` / `.expect(` and the panicking macros in the
# pipeline, and — under its own limit, so neither hides the other's drift —
# in the comm layer.
PANIC_SITES='\\.unwrap\\(\\)|\\.expect\\(|panic!\\(|unreachable!\\(|unimplemented!\\(|todo!\\('
PANIC_SITES_MAX=0
PANIC_SITES_COMM_MAX=13
ratchet "panic-site (pipeline.rs + proto.rs + membership.rs)" "$PANIC_SITES_MAX" "$(count_sites \
    "$PANIC_SITES" crates/core/src/pipeline.rs crates/core/src/proto.rs \
    crates/core/src/membership.rs)"
ratchet "panic-site (rt/src/comm.rs)" "$PANIC_SITES_COMM_MAX" "$(count_sites \
    "$PANIC_SITES" crates/rt/src/comm.rs)"

# Tag arithmetic: a message's tag is spelled in `core::proto`'s channel
# table and nowhere else in the crate.
mapfile -t core_sources < <(find crates/core/src -name '*.rs' ! -name proto.rs)
ratchet "tag-arithmetic (core, outside proto.rs)" 0 "$(count_sites \
    'TAG_[A-Z]+ \\+' "${core_sources[@]}")"

# Schedule queries: what rank r is at step t is answered by
# `membership::Schedule` alone — the fault plan has no timeline query for
# the pipeline to call, so a second path cannot grow back.
ratchet "schedule-query (pipeline.rs)" 0 "$(count_sites \
    'faults\\.(rank_failed|recovers_later|rank_rejoins_at|membership_timeline|spare_join|controller_failed)' \
    crates/core/src/pipeline.rs)"

# Per-frame resample and ray set-up: a render rank reads its block's
# per-run `BrickPlan` (stencil + ray table) and builds neither per frame.
ratchet "per-frame resample/ray set-up (crates/core/src)" 0 "$(count_sites \
    'Brick::from_field|render_block|\\.ray\\(' "${core_sources[@]}" crates/core/src/proto.rs)"

# Block degradation: what a render rank is owed at a step, what it got and
# how each block degrades is `proto::StepAccount`'s rule alone; the receive
# loop only drives it.
ratchet "block-degradation rule (pipeline.rs)" 0 "$(count_sites \
    'Degradation::(CoarserLevel|MissingBlock)|vec!\\[0usize; nblocks\\]' \
    crates/core/src/pipeline.rs)"

# Role contexts: `run_pipeline` resolves the configuration once into a
# `Run` plus one context per role; no bag of everything (`Shared`) and no
# raw-config read (`.cfg.`) may grow back. (awk has no `\b`: the word
# boundary is spelled out.)
ratchet "role contexts (pipeline.rs)" 0 "$(count_sites \
    '(^|[^A-Za-z0-9_])Shared([^A-Za-z0-9_]|$)|\\.cfg\\.' crates/core/src/pipeline.rs)"

# One input read path: every input rank reads its share independently
# through `fetch_step`. The §5.3.1 collective read is compared where it is
# measured (`tab_read_strategies`, the benchmark walk); no strategy knob,
# group communicator or schedule precondition for a second read path may
# grow back into the pipeline.
ratchet "one input read path (crates/core/src)" 0 "$(count_sites \
    'ReadStrategy|read_collective|group_comm|comm_group|contiguous_reads' \
    "${core_sources[@]}" crates/core/src/proto.rs)"

# Payload digests: the in-memory bulk integrity checks — wire pieces
# (`proto::piece_checksum`) and cache entries (`cache::field_checksum`) —
# run through the word-parallel `rt::FnvLanes`; the byte-serial `Fnv1a`
# is for digests that are persisted or tiny. The frame-key hashes in
# cache.rs are keys, stay byte-serial and are not counted.
ratchet "byte-serial digest over payloads (proto.rs, cache.rs)" 0 "$(( \
    $(count_sites 'Fnv1a::' crates/core/src/proto.rs) + \
    $(count_sites '\\.words\\(data' crates/core/src/cache.rs) ))"

# Set-up in linear time: a run's node-id sets (block lists, level corner
# lists) come from `mesh::sorted_unique`'s bitmap, never a sort + dedup;
# `from_octree`'s `corner_keys.dedup()` is over sparse Morton keys and is
# not counted. A level's cell count is one pass over the leaves, never the
# length of a materialised `extract_level`.
ratchet "sort+dedup node set (hexmesh.rs, reader.rs)" 0 "$(count_sites \
    'ids\\.dedup\\(\\)' crates/mesh/src/hexmesh.rs crates/core/src/reader.rs)"
mapfile -t level_sources < <(find crates/mesh/src crates/render/src -name '*.rs')
ratchet "materialised level count (crates/{mesh,render}/src)" 0 "$(count_sites \
    'extract_level\\([^)]*\\)\\.len\\(\\)' "${level_sources[@]}")"

# SLIC at the cost of its pixels: the schedule is one x-sweep per band
# with every run's layers in one flat list, and each round's spans travel
# as one schedule-ordered buffer per peer, read back by cursor — no
# per-run pixel copies, no per-window line scan, no keyed inbox.
ratchet "per-run copies and keyed spans in SLIC (composite)" 0 "$(count_sites \
    'frag_rect\\(|runs_of_line\\(|HashMap<\\(u32, u32\\)' \
    crates/composite/src/algorithms.rs crates/composite/src/schedule.rs)"

# LIC at the cost of its arithmetic: every lane of a streamline group runs
# every phase of a step and a `live` mask decides what it keeps, so no lane
# branches out of the kernel and no second path serves a ragged group.
ratchet "per-lane branches in the LIC kernel (lic.rs)" 0 "$(count_sites \
    '(^|[^A-Za-z0-9_])continue([^A-Za-z0-9_]|$)' crates/lic/src/lic.rs)"

# A run's metrics are one table `run_pipeline` builds after the ranks
# have joined (`TraceData::metrics`): no live registry, gauge or histogram —
# nothing a rank writes while the run is in progress — may grow back.
mapfile -t crate_sources < <(find crates/*/src -name '*.rs')
ratchet "live metric kinds (crates/*/src)" 0 "$(count_sites \
    'Registry|Gauge|Histogram|MetricValue|MetricSample|obs::Counter' "${crate_sources[@]}")"

# Enum tables are declared once (`enum_table!`): a variant's position is
# `variant as usize`, never a hand-synced `index()` match.
mapfile -t rt_sources < <(find crates/rt/src -name '*.rs')
ratchet "hand-synced enum index (crates/rt/src)" 0 "$(count_sites \
    'fn index\\(self\\)' "${rt_sources[@]}")"

# One span format, one strip split: direct-send ships SLIC's keyless
# `Batch`es and routes, counts and composites by `strip_rows` alone — no
# keyed span type and no second row-to-strip function may grow back.
mapfile -t composite_sources < <(find crates/composite/src -name '*.rs')
ratchet "keyed spans and second strip split (composite)" 0 "$(count_sites \
    'SpanData|frag_span\\(|send_batch\\(|strip_of' "${composite_sources[@]}")"

# The control plane says each thing once: a plan commits in the one `CTL`
# message of its tick and a joiner catches up from the one `CATCHUP` the
# output rank pushes — no ack, verdict, join request or catch-up window
# may grow back. (awk has no `\b`: the word boundary is spelled out.)
mapfile -t all_core_sources < <(find crates/core/src -name '*.rs')
ratchet "information-free control messages (core)" 0 "$(count_sites \
    'CTL_ACK|CTL_VERDICT|(^|[^A-Za-z0-9_])JOIN([^A-Za-z0-9_]|$)|catchup_window' \
    "${all_core_sources[@]}")"

# Wall-clock sites: `Instant::now()` / `thread::sleep(` in the runtime
# crates — each is a place real time leaks into the protocol, and the
# count the virtual-time work (ROADMAP) drives down to its
# Clock/Transport seams.
WALL_CLOCK_SITES_MAX=22
mapfile -t runtime_sources < <(find crates/core/src crates/rt/src crates/parfs/src -name '*.rs')
ratchet "wall-clock-site (crates/{core,rt,parfs}/src)" "$WALL_CLOCK_SITES_MAX" "$(count_sites \
    'Instant::now\\(\\)|thread::sleep\\(' "${runtime_sources[@]}")"

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> cargo clippy (skipped: not installed)"
fi

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test --workspace -q

# Release-mode test pass over the trace matrix: the deterministic harness
# (prefetch equivalence, property tests, overlap invariants) must hold
# both with spans off and with the detailed QUAKEVIZ_TRACE auto spans on.
# An externally pinned QUAKEVIZ_TRACE (the CI job matrix) runs just that
# cell; locally both cells run.
if [[ -n "${QUAKEVIZ_TRACE+x}" ]]; then
    echo "==> cargo test --release (QUAKEVIZ_TRACE=${QUAKEVIZ_TRACE} QUAKEVIZ_FAULTS=${QUAKEVIZ_FAULTS:-} QUAKEVIZ_CODEC=${QUAKEVIZ_CODEC:-} QUAKEVIZ_CACHE=${QUAKEVIZ_CACHE:-})"
    cargo test --workspace -q --release
else
    for trace in 0 1; do
        echo "==> cargo test --release (QUAKEVIZ_TRACE=${trace})"
        QUAKEVIZ_TRACE="${trace}" cargo test --workspace -q --release
    done
fi

# Fault matrix: the whole release suite must also pass under a
# deterministic environment-injected fault plan (read faults only —
# message loss and rank death need per-test deadlines and topologies, and
# are exercised by tests/fault_injection.rs). Every differential oracle in
# the suite still demands bit-identical frames, so this proves the
# retry/recovery machinery is invisible when it wins. An externally
# pinned QUAKEVIZ_FAULTS (the CI job matrix) is covered by the release
# pass above; locally all three seeds run.
if [[ -z "${QUAKEVIZ_FAULTS:-}" && -z "${QUAKEVIZ_TRACE+x}" ]]; then
    for spec in \
        "seed=101,read_transient=0.02,read_slow=0.03,slow_factor=2" \
        "seed=202,read_corrupt=0.02,read_transient=0.02" \
        "seed=303,read_transient=0.03,read_corrupt=0.01,read_slow=0.02,slow_factor=2"; do
        echo "==> cargo test --release (QUAKEVIZ_FAULTS=${spec})"
        QUAKEVIZ_FAULTS="${spec}" QUAKEVIZ_TRACE=0 cargo test --workspace -q --release
    done
    # Codec matrix: the whole release suite must also pass with a wire
    # codec (and temporal deltas) injected through QUAKEVIZ_CODEC. Every
    # differential oracle still demands bit-identical frames, so these
    # cells prove the codec layer is invisible to everything above it.
    # Tests that pin .wire_spec() explicitly (the raw baselines of the
    # delta/codec oracles) are unaffected by the env. An externally
    # pinned QUAKEVIZ_CODEC (the CI job matrix) is covered by the
    # release pass above; locally all cells run.
    for codec in \
        "raw,delta,keyframe=3" \
        "rle" \
        "rle,delta,keyframe=3" \
        "shuffle" \
        "shuffle,delta,keyframe=4"; do
        echo "==> cargo test --release (QUAKEVIZ_CODEC=${codec})"
        QUAKEVIZ_CODEC="${codec}" QUAKEVIZ_TRACE=0 cargo test --workspace -q --release
    done
    # Cache cell: the whole release suite must also pass with a blanket
    # per-run cache tier armed through QUAKEVIZ_CACHE. Every run gets a
    # fresh tier (no warmth crosses runs without an explicit
    # .cache_tier), so every differential oracle still demands frames
    # bit-identical to its cache-off twin — the cell proves the tier is
    # invisible above the reader. Warm-replay coherence is exercised by
    # tests/cache_coherence.rs, which shares tiers explicitly.
    echo "==> cargo test --release (QUAKEVIZ_CACHE=1)"
    QUAKEVIZ_CACHE=1 QUAKEVIZ_TRACE=0 cargo test --workspace -q --release
fi

# The repository benchmark's own plumbing check: every workload once,
# oracle on (benchmark/README.md); ~15 s. Runs locally and in every CI
# job that pins no fault, codec or cache cell (the job matrix always
# defines QUAKEVIZ_TRACE, so that is not the test).
if [[ -z "${QUAKEVIZ_FAULTS:-}" && -z "${QUAKEVIZ_CODEC:-}" && -z "${QUAKEVIZ_CACHE:-}" ]]; then
    echo "==> benchmark run --smoke"
    cargo run --release --offline --manifest-path benchmark/Cargo.toml -- run --smoke
fi

echo "CI OK"
