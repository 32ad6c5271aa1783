#!/usr/bin/env bash
# Regenerate the committed golden digests (tests/golden/*.digest) from a
# built golden_test. This is the only sanctioned way to change them: run
# it after a change that is meant to alter full_study's outputs, review
# the diff, and record the regeneration in CHANGES.md.
#
# Usage: tools/regen_golden.sh [BUILD_DIR]   (default: build)
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
build="$(cd "${1:-$root/build}" && pwd)"
bin="$build/tests/golden_test"
[[ -x "$bin" ]] || { echo "no golden_test in $build (build it first)" >&2; exit 2; }

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
# The test fails whenever the outputs moved; that is the point here.
(cd "$work" && "$bin" --gtest_filter='Golden.*Outputs' >/dev/null) || true
shopt -s nullglob
produced=("$work"/golden_actual/*.digest)
[[ ${#produced[@]} -gt 0 ]] || { echo "golden_test produced no digests" >&2; exit 1; }
cp "${produced[@]}" "$root/tests/golden/"
git -C "$root" diff --stat -- tests/golden
echo "Regenerated ${#produced[@]} digest files; add a CHANGES.md line saying why."
