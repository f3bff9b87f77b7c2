#!/bin/sh
# Run a command at NVFS_SCALE=0.1 and compare its stdout with a
# committed golden file, or rewrite the golden from it.
#
#   golden.sh check  GOLDEN COMMAND [ARGS...]   fail on any difference
#   golden.sh update GOLDEN COMMAND [ARGS...]   overwrite GOLDEN
set -u
mode=$1
golden=$2
shift 2
out=$(mktemp) || exit 1
trap 'rm -f "$out"' EXIT
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
