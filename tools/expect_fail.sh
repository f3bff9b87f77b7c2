#!/bin/sh
# Run a command that must fail: pass only if it exits with STATUS and
# its standard error contains TEXT.
#
#   expect_fail.sh STATUS TEXT COMMAND [ARGS...]
set -u
want_status=$1
want_text=$2
shift 2
err=$("$@" 2>&1 >/dev/null)
status=$?
if [ "$status" -ne "$want_status" ]; then
    echo "expect_fail: exit status $status, expected $want_status: $*" >&2
    exit 1
fi
case "$err" in
*"$want_text"*) exit 0 ;;
esac
echo "expect_fail: stderr lacks '$want_text': $err" >&2
exit 1
