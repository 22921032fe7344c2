#!/usr/bin/env bash
# Compare the CLI's outputs of two source trees, command by command.
#
# Usage: tools/compare_outputs.sh PARENT CHANGE
#
# PARENT and CHANGE are checkouts of the repository (each with its own
# src/).  Every command below runs as `python -m fogcoded.cli ...` with
# PYTHONPATH=<tree>/src in both trees; stdout, stderr and the exit code are
# compared with cmp.  Prints `same` or `DIFF` per command and exits 1 if
# any command differs.  Sweeps write their CSV to stdout, so nothing is
# written into either tree.
set -u

if [ $# -ne 2 ]; then
    echo "usage: $0 PARENT CHANGE" >&2
    exit 2
fi
parent=$(cd "$1" && pwd) || exit 2
change=$(cd "$2" && pwd) || exit 2
python=${PYTHON:-python3}

COMMANDS=(
    # transmission tables: the demo, bit-exact, and K = 12 both ways
    "tables"
    "tables --mode bitexact"
    "tables --k 12 --n 12 --m 3 --b 6 --l 2"
    "tables --k 12 --n 12 --m 3 --b 6 --l 2 --mode bitexact --f 2000"
    # analytic entries whose expected sizes underflow to 0.0 are still sent
    "tables --k 6 --n 6 --m 1e-200 --b 6 --l 1"
    # the derived S1 and collapsed columns at both extremes of delta_b:
    # every slot after the first due, then every deadline in the last slot
    "tables --k 8 --n 8 --m 2 --b 4 --l 2 --delta-b 1"
    "tables --k 8 --n 8 --m 2 --b 4 --l 2 --delta-b 4 --mode bitexact --f 512"
    # the default run, the pinned bit-exact run and the bitexact-k12 shape
    "simulate"
    "simulate --mode bitexact --k 8 --b 4 --l 2 --f 4096 --trials 3 --seed 5"
    "simulate --mode bitexact --k 12 --b 6 --l 2 --delta-b 2 --f 20000 --trials 2 --seed 2101"
    # random-schedule bit-exact runs
    "simulate --mode bitexact --k 9 --b 4 --f 3000 --trials 3 --seed 7"
    "simulate --mode bitexact --k 10 --f 5000 --trials 3"
    # the engine cap: 16 position rows, uint16 masks, 2^16 columns
    "simulate --mode bitexact --k 16 --n 16 --m 4 --b 8 --l 2 --f 2000 --trials 1 --seed 3"
    # the row positions' packed sort keys at their width edges: uint64 keys
    # (K + bit_length(F - 1) >= 32), then positions past uint16
    "simulate --mode bitexact --k 16 --n 16 --m 4 --b 8 --l 2 --f 40000 --trials 1 --seed 3"
    "simulate --mode bitexact --k 6 --b 3 --l 2 --f 70000 --trials 2 --seed 4"
    # the verification suite, on the default seeds and on a second set
    # (check_decodability decodes every F-AP at its deadline on both)
    "verify --max-k 12"
    "verify --max-k 12 --seed 5"
    # the analytic-sweep shape, and l and m sweeps
    "sweep --sweep deltab --values 1,2,4,7 --k 14 --b 7 --l 2 --f 10000 --trials 1"
    "sweep --sweep deltab --values 1,2,3 --k 6 --b 3 --l 2 --f 2000 --trials 2 --mode bitexact"
    "sweep --sweep l --values 1,2,3 --b 4 --delta-b 1,2 --trials 2"
    "sweep --sweep m --values 2,5,10 --trials 3"
    "sweep --sweep m --values 2,5,10 --k 8 --b 4 --f 2000 --trials 2 --mode bitexact"
    # vanishing cache ratios
    "simulate --m 1e-9"
    "simulate --m 4.5e-307"
    # bit-exact caches holding none, then all, of each file
    "simulate --mode bitexact --k 4 --b 4 --l 1 --f 100 --m 0.001 --n 4"
    "simulate --mode bitexact --k 4 --b 4 --l 1 --f 100 --m 3.999 --n 4"
)

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
for i in "${!COMMANDS[@]}"; do
    cmd=${COMMANDS[$i]}
    for side in parent change; do
        tree=${!side}
        # shellcheck disable=SC2086  # the command is split into its arguments
        PYTHONPATH="$tree/src" "$python" -m fogcoded.cli $cmd \
            >"$out/$side.out" 2>"$out/$side.err"
        echo $? >"$out/$side.rc"
    done
    verdict=same
    for stream in out err rc; do
        cmp -s "$out/parent.$stream" "$out/change.$stream" || verdict=DIFF
    done
    [ "$verdict" = same ] || status=1
    printf '%-4s  %s\n' "$verdict" "$cmd"
done
exit $status
