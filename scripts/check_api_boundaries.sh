#!/usr/bin/env bash
# API-boundary guard: every consumer must go through the
# compiler::Engine facade, and every replica through one event loop.
#
#  1. No direct planner calls (engine::planWeightKernel /
#     planAttentionKernel) outside the engine itself, the compiler
#     facade, and the tests that verify them.
#  2. No example includes engine/template_engine.h directly — the
#     public surface for examples is compiler/engine.h.
#  3. The serving and fleet layers must not plan or cost kernels
#     themselves — shard shapes (tensor-parallel linears/attention
#     included) are compiled through compiler::Engine, so src/serving/
#     and src/fleet/ may not include the template engine or the kernel
#     cost-estimator headers, nor call the VQ estimators
#     (kernels::estimateVqWeightKernel / estimateVqAttentionKernel)
#     directly: compiler/engine.h includes kernels/vq_kernels.h, so
#     such a call would compile.  Nor may src/serving/ or
#     src/fleet/ price a step's kernels one by one
#     (llm::schemeLinearUs / kvSchemeAttentionUs): they price steps
#     through the one decode-step model, llm::decodeLinearUs /
#     decodeAttnUs / estimateChunkedPrefillUs.
#  4. serving::SimulatorCore owns the replica loop: it delivers
#     arrivals, fast-forwards an idle clock and steps
#     (enqueue / nextEventUs / advance).  src/fleet/ and
#     src/serving/simulator.cc drive cores through that loop only, so
#     they may not call a core's submit(), setNow() or step().
#
# Run from anywhere; exits non-zero with a diagnostic when a boundary
# is violated.  Wired into ctest (label: compiler) and CI.
set -u
cd "$(dirname "$0")/.."

status=0

planner_hits=$(grep -rn "planWeightKernel\|planAttentionKernel" \
    bench/ examples/ src/llm/ src/serving/ 2>/dev/null)
if [ -n "${planner_hits}" ]; then
    echo "ERROR: direct planner calls bypass compiler::Engine:"
    echo "${planner_hits}"
    status=1
fi

include_hits=$(grep -rn '#include "engine/template_engine.h"' \
    examples/ 2>/dev/null)
if [ -n "${include_hits}" ]; then
    echo "ERROR: examples must include compiler/engine.h, not the" \
         "template engine directly:"
    echo "${include_hits}"
    status=1
fi

serving_include_hits=$(grep -rn \
    '#include "engine/template_engine.h"\|#include "kernels/vq_kernels.h"\|#include "kernels/fp16_kernels.h"\|#include "kernels/ewq_kernels.h"' \
    src/serving/ src/fleet/ 2>/dev/null)
if [ -n "${serving_include_hits}" ]; then
    echo "ERROR: serving and fleet must price kernels through" \
         "compiler::Engine" \
         "(llm::decodeLinearUs / decodeAttnUs /" \
         "estimateChunkedPrefillUs), not include the planner or kernel" \
         "estimators directly:"
    echo "${serving_include_hits}"
    status=1
fi

serving_call_hits=$(grep -rn \
    "estimateVqWeightKernel\|estimateVqAttentionKernel" \
    src/serving/ src/fleet/ 2>/dev/null)
if [ -n "${serving_call_hits}" ]; then
    echo "ERROR: serving or fleet calls kernel cost estimators" \
         "directly instead of compiling shard shapes through" \
         "compiler::Engine:"
    echo "${serving_call_hits}"
    status=1
fi

step_call_hits=$(grep -rn "schemeLinearUs\|kvSchemeAttentionUs" \
    src/serving/ src/fleet/ 2>/dev/null)
if [ -n "${step_call_hits}" ]; then
    echo "ERROR: serving and fleet price steps through the one" \
         "decode-step model (llm::decodeLinearUs / decodeAttnUs /" \
         "estimateChunkedPrefillUs), not per-kernel" \
         "llm::schemeLinearUs / kvSchemeAttentionUs calls:"
    echo "${step_call_hits}"
    status=1
fi

loop_hits=$(grep -rnE '(\.|->)(submit|setNow)\(|(\.|->)step\(\)' \
    src/fleet/ src/serving/simulator.cc 2>/dev/null)
if [ -n "${loop_hits}" ]; then
    echo "ERROR: a second replica loop: the fleet and ServingSimulator" \
         "drive SimulatorCore through enqueue / nextEventUs / advance," \
         "not submit / setNow / step:"
    echo "${loop_hits}"
    status=1
fi

if [ "${status}" -eq 0 ]; then
    echo "API boundaries clean: all consumers go through" \
         "compiler::Engine, and every replica through" \
         "SimulatorCore::advance."
fi
exit "${status}"
