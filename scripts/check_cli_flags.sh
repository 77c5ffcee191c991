#!/usr/bin/env bash
# Malformed-flag guard for the simulator programs: every bad numeric
# value must be a clean usage error, never a wrap-around, a truncated
# suffix, an uncaught exception or a run that never returns.
#
# Each case runs one program under a timeout and requires its exit
# code (2 for a usage error) and a text on stderr (the flag's name).
#
#   scripts/check_cli_flags.sh BUILD_DIR
#
# Wired into ctest (label: cli); exits non-zero with a diagnostic when
# a case misbehaves.
set -u
if [ $# -ne 1 ]; then
    echo "usage: $0 BUILD_DIR" >&2
    exit 2
fi
build_dir=$1
status=0
stderr_file=$(mktemp)
trap 'rm -f "${stderr_file}"' EXIT

# expect CODE TEXT PROGRAM ARGS...
expect() {
    local want_code=$1 want_text=$2 prog=$3
    shift 3
    timeout 20 "${build_dir}/${prog}" "$@" > /dev/null 2> "${stderr_file}"
    local code=$?
    if [ "${code}" -ne "${want_code}" ] ||
       ! grep -qF -- "${want_text}" "${stderr_file}"; then
        echo "FAIL: ${prog} $* -> exit ${code} (want ${want_code}" \
             "and '${want_text}' on stderr)"
        head -n 3 "${stderr_file}"
        status=1
    fi
}

expect 2 --qps            serving_sim --qps abc
expect 2 --max-batch      serving_sim --max-batch -1
expect 2 --block-tokens   serving_sim --block-tokens 16x
expect 2 --seed           serving_sim --seed -3
expect 2 --codebook-slots serving_sim --codebook-slots 0
expect 2 --duration       serving_sim --duration nan
expect 2 --tp-degree      serving_sim --tp-degree 0
expect 2 --hbm-gb         serving_sim --hbm-gb ' 24'
expect 2 --replicas       fleet_sim --replicas -1
expect 2 --tp-degree      fleet_sim --tp-degree 2x
expect 2 --max-batch      fleet_sim --max-batch 1.5
expect 2 --qps            fleet_sim --qps inf
# Well-formed but out of the workload generator's domain: a clean
# fatal (exit 1) instead of generating requests until memory runs out.
expect 1 "qps must be finite and > 0" \
    serving_sim --qps -1 --duration 2
expect 1 "qps must be finite and > 0" \
    fleet_sim --qps 0 --duration 2

if [ "${status}" -eq 0 ]; then
    echo "check_cli_flags: OK"
fi
exit "${status}"
