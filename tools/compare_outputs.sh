#!/usr/bin/env bash
# Compare the CLI's outputs of two source trees command by command, or pin
# this tree's outputs as its golden files.
#
# Usage: tools/compare_outputs.sh PARENT CHANGE
#        tools/compare_outputs.sh --write
#
# The commands are the lines of tests/golden/commands.txt in the tree this
# script lives in.  Each runs as `python -m fogcoded.cli ...` with
# PYTHONPATH=<tree>/src.
#
# PARENT CHANGE: PARENT and CHANGE are checkouts of the repository (each
# with its own src/).  stdout, stderr and the exit code of every command
# are compared with cmp.  Prints `same` or `DIFF` per command and exits 1
# if any command differs.
#
# --write: runs every command on this tree's src/ and writes its stdout,
# stderr and exit code to tests/golden/NAME.stdout, NAME.stderr and
# NAME.rc, where NAME is the command with each character outside
# [A-Za-z0-9.,=-] replaced by _.  The golden files of commands no longer
# listed are removed.  tests/test_golden.py holds the CLI to these files.
set -u

here=$(cd "$(dirname "$0")/.." && pwd)
golden=$here/tests/golden
python=${PYTHON:-python3}

if [ $# -eq 1 ] && [ "$1" = --write ]; then
    write=1
elif [ $# -eq 2 ]; then
    write=0
    parent=$(cd "$1" && pwd) || exit 2
    change=$(cd "$2" && pwd) || exit 2
else
    echo "usage: $0 PARENT CHANGE | $0 --write" >&2
    exit 2
fi

COMMANDS=()
while IFS= read -r line; do
    read -ra words <<<"$line"
    [ ${#words[@]} -eq 0 ] || [ "${words[0]:0:1}" = "#" ] || COMMANDS+=("${words[*]}")
done <"$golden/commands.txt"

# run TREE CMD PREFIX: CMD's stdout, stderr and exit code on TREE's src/
run() {
    # shellcheck disable=SC2086  # the command is split into its arguments
    PYTHONPATH="$1/src" "$python" -m fogcoded.cli $2 >"$3.stdout" 2>"$3.stderr"
    echo $? >"$3.rc"
}

if [ "$write" = 1 ]; then
    rm -f "$golden"/*.stdout "$golden"/*.stderr "$golden"/*.rc
    for cmd in "${COMMANDS[@]}"; do
        run "$here" "$cmd" "$golden/$(printf '%s' "$cmd" | tr -c 'A-Za-z0-9.,=-' _)"
        printf 'wrote  %s\n' "$cmd"
    done
    exit 0
fi

out=$(mktemp -d)
trap 'rm -rf "$out"' EXIT
status=0
for cmd in "${COMMANDS[@]}"; do
    run "$parent" "$cmd" "$out/parent"
    run "$change" "$cmd" "$out/change"
    verdict=same
    for stream in stdout stderr rc; do
        cmp -s "$out/parent.$stream" "$out/change.$stream" || verdict=DIFF
    done
    [ "$verdict" = same ] || status=1
    printf '%-4s  %s\n' "$verdict" "$cmd"
done
exit $status
