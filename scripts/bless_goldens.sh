#!/usr/bin/env bash
# Rewrite the golden reports under tests/golden/ from the current
# source: builds the golden test in BUILD_DIR (default: build) and runs
# it with VQLLM_BLESS_GOLDENS=1, which writes each config's report and
# trace digest instead of comparing them.  Review `git diff
# tests/golden/` before committing: every changed byte is a changed
# modeled number, scheduling decision or trace event.
#
#   scripts/bless_goldens.sh [BUILD_DIR]
set -euo pipefail
cd "$(dirname "$0")/.."
build_dir=${1:-build}

if [ ! -f "${build_dir}/CMakeCache.txt" ]; then
    cmake -B "${build_dir}" -S . -DCMAKE_BUILD_TYPE=Release
fi
cmake --build "${build_dir}" --target golden_test_goldens -j
VQLLM_BLESS_GOLDENS=1 "${build_dir}/golden_test_goldens"
# Confirm the freshly written files compare clean.
"${build_dir}/golden_test_goldens"
git status --short tests/golden/
