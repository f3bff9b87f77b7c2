#!/bin/sh
# Run a command COUNT times in a row with NVFS_JOBS unset, so the
# global worker pool sizes itself from the host, and fail on the first
# non-zero exit.  Teardown-order crashes at process exit show on some
# runs only, so one clean run proves little.
#
#   repeat_exit.sh COUNT COMMAND [ARGS...]
set -u
count=$1
shift
i=0
while [ "$i" -lt "$count" ]; do
    i=$((i + 1))
    env -u NVFS_JOBS "$@" > /dev/null
    status=$?
    if [ "$status" -ne 0 ]; then
        echo "repeat_exit: run $i of $count exited with status" \
             "$status: $*" >&2
        exit 1
    fi
done
echo "repeat_exit: $count clean exits: $*"
