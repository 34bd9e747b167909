#!/usr/bin/env bash
# The frame digest of the full-feature movie: runs the northridge_movie
# example (temporal enhancement, gradient lighting and surface LIC at
# 512²) in a temporary directory and prints its frame count and the
# sha256 of its PPMs concatenated in step order. Two commits that render
# the same frames print the same line — the one-command record of kernel
# drift across changes.
#
# With `--against REV` it also renders REV's frames, from a copy of REV
# exported into the temporary directory (`git archive`, so nothing is
# registered in the repository and nothing is left behind if the script
# is killed), prints both lines and, from `cmp -l` over the two PPM
# streams, how many 8-bit channels differ and by how much: the record of
# drift a change that moves frames on purpose states.
#
#   scripts/frame_digest.sh
#   scripts/frame_digest.sh --against HEAD~1
set -euo pipefail
usage="usage: scripts/frame_digest.sh [--against REV]"
against=""
case "$#:${1-}" in
    0:) ;;
    2:--against) against="$2" ;;
    *) echo "$usage" >&2; exit 2 ;;
esac
root="$(cd "$(dirname "$0")/.." && pwd)"
if [ -n "$against" ]; then
    rev="$(git -C "$root" rev-parse --verify --quiet "$against^{commit}")" \
        || { echo "frame_digest: $against is not a commit" >&2; exit 2; }
fi
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

# render SRC DIR: run SRC's example in DIR and concatenate its frames
# into DIR/frames.ppm
render() {
    mkdir -p "$2"
    (cd "$2" && cargo run --release --offline --quiet --manifest-path "$1/Cargo.toml" \
        --example northridge_movie >/dev/null)
    cat "$2"/out/movie/frame_*.ppm >"$2/frames.ppm"
}

# line DIR: the digest line of the frames rendered in DIR
line() {
    local frames=("$1"/out/movie/frame_*.ppm)
    echo "${#frames[@]} frames, sha256 $(sha256sum <"$1/frames.ppm" | cut -d' ' -f1)"
}

render "$root" "$tmp/this"
if [ -z "$against" ]; then
    line "$tmp/this"
    exit 0
fi

mkdir -p "$tmp/rev"
git -C "$root" archive "$rev" | tar -x -C "$tmp/rev"
CARGO_TARGET_DIR="$tmp/rev/target" render "$tmp/rev" "$tmp/rev-run"
echo "$against ($(git -C "$root" rev-parse --short "$rev")): $(line "$tmp/rev-run")"
echo "this tree: $(line "$tmp/this")"

if [ "$(stat -c %s "$tmp/rev-run/frames.ppm")" != "$(stat -c %s "$tmp/this/frames.ppm")" ]; then
    echo "drift: the two runs wrote frames of different sizes or counts; not compared"
    exit 1
fi
# 8-bit channels = every byte after each frame's three header lines
channels=0
for f in "$tmp"/this/out/movie/frame_*.ppm; do
    read -r w h < <(sed -n 2p "$f")
    channels=$((channels + w * h * 3))
done
{ cmp -l "$tmp/rev-run/frames.ppm" "$tmp/this/frames.ppm" || true; } | awk -v n="$channels" '
    function oct(s,    v, i) { v = 0; for (i = 1; i <= length(s); i++) v = v * 8 + substr(s, i, 1); return v }
    { d = oct($2) - oct($3); if (d < 0) d = -d; k++; sum += d; if (d > max) max = d }
    END {
        printf "drift: %d of %d 8-bit channels differ (%.4f %%)", k, n, 100 * k / n
        if (k) printf ", max %d, mean %.2f levels", max, sum / k
        printf "\n"
    }'
