#!/usr/bin/env bash
# The frame digest of the full-feature movie: runs the northridge_movie
# example (temporal enhancement, gradient lighting and surface LIC at
# 512²) in a temporary directory and prints its frame count and the
# sha256 of its PPMs concatenated in step order. Two commits that render
# the same frames print the same line — the one-command record of kernel
# drift across changes.
#
#   scripts/frame_digest.sh
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT
cd "$tmp"
cargo run --release --offline --quiet --manifest-path "$root/Cargo.toml" \
    --example northridge_movie >/dev/null
frames=(out/movie/frame_*.ppm)
echo "${#frames[@]} frames, sha256 $(cat "${frames[@]}" | sha256sum | cut -d' ' -f1)"
