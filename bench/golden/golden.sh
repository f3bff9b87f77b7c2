#!/bin/sh
# Run a command at NVFS_SCALE=0.1 (unless it sets its own, as in
# `env NVFS_SCALE=1 ...`) and compare its stdout with a committed
# golden file, or rewrite the golden from it.
#
#   golden.sh check  GOLDEN COMMAND [ARGS...]   fail on any difference
#   golden.sh update GOLDEN COMMAND [ARGS...]   overwrite GOLDEN
#   golden.sh check-cat GOLDEN... -- COMMAND [ARGS...]
#                        fail unless stdout is the goldens concatenated
set -u
mode=$1
shift
out=$(mktemp) || exit 1
expected=$(mktemp) || exit 1
trap 'rm -f "$out" "$expected"' EXIT
if [ "$mode" = check-cat ]; then
    while [ "$1" != -- ]; do
        cat "$1" >> "$expected" || exit 1
        shift
    done
    shift
    golden=$expected
    mode=check
else
    golden=$1
    shift
fi
NVFS_SCALE=0.1 "$@" > "$out"
status=$?
if [ "$status" -ne 0 ]; then
    echo "golden: exit status $status: $*" >&2
    exit 1
fi
case "$mode" in
check) diff -u "$golden" "$out" ;;
update) cp "$out" "$golden" ;;
*) echo "golden: unknown mode '$mode'" >&2; exit 2 ;;
esac
