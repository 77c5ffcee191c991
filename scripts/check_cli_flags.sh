#!/usr/bin/env bash
# Malformed-flag guard for the simulator programs: every bad numeric
# or enum value must be a clean usage error, never a wrap-around, a
# truncated suffix, an uncaught exception, an abort or a run that never
# returns.
#
# Each case runs one program under a timeout and requires its exit
# code (2 for a usage error) and a text on the first line of stderr:
# the error message, not the usage text that follows it and names
# every flag.
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
       ! head -n 1 "${stderr_file}" | grep -qF -- "${want_text}"; then
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
expect 2 --prefill-replicas fleet_sim --prefill-replicas x
expect 2 --handoff-gbps   fleet_sim --handoff-gbps 0
# A value outside an enum's names is a usage error naming the flag.
for prog in serving_sim fleet_sim; do
    for flag in --scheme --kv-scheme --model --gpu --arrival \
                --prefix-cache; do
        expect 2 "${flag} expects" "${prog}" "${flag}" bogus
    done
done
expect 2 "--policy expects"        serving_sim --policy bogus
expect 2 "--router expects"        fleet_sim --router bogus
expect 2 "--disaggregated expects" fleet_sim --disaggregated bogus
# Well-formed but out of the workload generator's domain: a clean
# fatal (exit 1) instead of generating requests until memory runs out.
expect 1 "qps must be finite and > 0" \
    serving_sim --qps -1 --duration 2
expect 1 "qps must be finite and > 0" \
    fleet_sim --qps 0 --duration 2
# A TP degree the model cannot shard by, or an HBM size whose KV budget
# overflows the byte count: a clean fatal, not an abort (exit 134) or
# an empty pool.
expect 1 "TP degree 3 must divide" serving_sim --tp-degree 3
expect 1 "TP degree 3 must divide" fleet_sim --tp-degree 3
expect 1 "TP degree 16 exceeds" serving_sim --model 70b --tp-degree 16
expect 1 "KV budget must be > 0 and < 2^64" \
    serving_sim --duration 2 --hbm-gb 1e11

if [ "${status}" -eq 0 ]; then
    echo "check_cli_flags: OK"
fi
exit "${status}"
