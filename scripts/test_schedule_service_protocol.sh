#!/bin/sh
# Protocol-v2 end-to-end check against the real schedule_service binary:
# id= tags round-trip onto response lines, cancel lines are accepted (an
# unknown id answers code=bad_request), failures carry machine-readable
# codes, parse errors do not abort the stream, and the stats line carries
# exactly the pinned key set, each key once. Run by CTest as
# schedule_service_protocol_v2 with the binary path as $1.
set -eu
export LC_ALL=C  # the pinned key set below is in byte order

bin="$1"

out=$(printf '%s\n' \
    'random:60:1 Liu 1 id=7' \
    'random:60:1 NoSuchAlgo 2 id=8' \
    'cancel id=99' \
    'this is not a request' \
    'random:60:1 Liu 4' \
    'stats' \
    | "$bin")

echo "$out"

fail() {
    echo "FAIL: $1" >&2
    exit 1
}

echo "$out" | grep -q '^ok id=7 .*algo=Liu .*p=1' \
    || fail "id=7 did not round-trip onto its ok line"
echo "$out" | grep -q '^error id=8 code=unknown_algorithm' \
    || fail "unknown algorithm did not answer code=unknown_algorithm"
echo "$out" | grep -q '^error code=bad_request cancel id=99' \
    || fail "cancel of an unknown id did not answer code=bad_request"
echo "$out" | grep -q '^error code=bad_request request line must be' \
    || fail "the malformed line did not answer code=bad_request"
# No cache= assertion here: with concurrent drain jobs either Liu
# request can win in-flight leadership and report the miss (unit tests
# pin p-normalized hits deterministically); the protocol claim is only
# that the line answers.
echo "$out" | grep -q '^ok tree=.*algo=Liu p=4 ' \
    || fail "the second Liu request was not answered"
[ "$(echo "$out" | wc -l)" -eq 6 ] \
    || fail "expected exactly one response line per input line"

# The stats line: the stream's own counters, then the service registry's
# keys (a stats-only one, one with a Prometheus twin, a histogram
# summary), each spelled once and together exactly the pinned set.
stats=$(echo "$out" | grep '^stats ') || fail "stats did not answer"
for key in pending lines parse_errors queue_admitted cache_misses e2e_count; do
    echo "$stats" | grep -q " $key=" || fail "the stats line lacks $key="
done
keys=$(echo "$stats" | tr ' ' '\n' | sed -n 's/=.*//p' | sort)
repeated=$(echo "$keys" | uniq -d)
[ -z "$repeated" ] || fail "the stats line repeats: $repeated"
golden='cache_bytes
cache_entries
cache_evictions
cache_hits
cache_misses
e2e_count
e2e_p50_us
e2e_p90_us
e2e_p99_us
e2e_window_count
lines
parse_errors
pending
pool_executed
pool_pending
pool_submitted
pool_threads
queue_admitted
queue_admitted_batch
queue_admitted_bulk
queue_admitted_interactive
queue_aged_batch
queue_aged_bulk
queue_aged_interactive
queue_cancelled
queue_cancelled_batch
queue_cancelled_bulk
queue_cancelled_interactive
queue_completed
queue_completed_batch
queue_completed_bulk
queue_completed_interactive
queue_expired
queue_expired_batch
queue_expired_bulk
queue_expired_interactive
queue_pending
queue_pending_batch
queue_pending_bulk
queue_pending_interactive
queue_rejected
queue_rejected_batch
queue_rejected_bulk
queue_rejected_interactive
queue_wait_p99_us_batch
queue_wait_p99_us_bulk
queue_wait_p99_us_interactive
stage_compute_count
stage_compute_p50_us
stage_compute_p90_us
stage_compute_p99_us
stage_compute_window_count
stage_dispatch_count
stage_dispatch_p50_us
stage_dispatch_p90_us
stage_dispatch_p99_us
stage_dispatch_window_count
stage_queue_wait_count
stage_queue_wait_p50_us
stage_queue_wait_p90_us
stage_queue_wait_p99_us
stage_queue_wait_window_count
store_bytes
store_rejected
store_trees'
if [ "$keys" != "$golden" ]; then
    echo "missing: $(echo "$golden" | grep -vxF "$keys")" >&2
    echo "unexpected: $(echo "$keys" | grep -vxF "$golden")" >&2
    fail "the stats keys differ from the pinned set"
fi

echo "protocol v2 OK"
