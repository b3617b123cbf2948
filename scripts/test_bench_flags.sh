#!/bin/sh
# Every bench binary that reads its flags through CliArgs must answer an
# unknown flag with one line, `error: unknown flag --bogus`, and exit 1:
# a script that runs the benches can then tell a typo from a crash (an
# uncaught exception aborts with exit 134). bench_perf is not one of
# them: google-benchmark owns its flags. Each run is capped at 60 s.
# Run by CTest as bench_flags with the bench binaries as arguments.
set -u

failures=0
want="error: unknown flag --bogus"
for bin in "$@"; do
    err=$(timeout 60 "$bin" --bogus 1 2>&1 >/dev/null)
    status=$?
    if [ "$status" -ne 1 ] || [ "$err" != "$want" ]; then
        echo "FAIL: $(basename "$bin") --bogus 1: exit $status," \
             "stderr '$err', want exit 1 and '$want'" >&2
        failures=$((failures + 1))
    fi
done

if [ "$failures" -ne 0 ]; then
    echo "$failures of $# bench binaries mishandled an unknown flag" >&2
    exit 1
fi
echo "all $# bench binaries reject an unknown flag with exit 1"
