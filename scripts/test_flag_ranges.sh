#!/bin/sh
# Range checks of every integer flag of schedule_server and
# schedule_router: an out-of-range value must make the binary exit 1,
# before anything binds, with one error line naming the flag, its range
# and the value — never wrap into a different port or an unbounded
# size. One row per flag; the shared flags run against both binaries.
# Each launch is capped at 5 s, so a binary that accepts the value and
# starts serving fails its row instead of hanging the script.
# Run by CTest as schedule_flag_ranges with the server binary as $1 and
# the router binary as $2.
set -u

server_bin="$1"
router_bin="$2"
failures=0

# Rows: binary, flag, out-of-range value, the range the error must name.
while read -r tier flag value range; do
    [ -n "$tier" ] || continue
    if [ "$tier" = server ]; then
        set -- "$server_bin"
    else
        set -- "$router_bin" --nodes 127.0.0.1:1
    fi
    err=$(timeout 5 "$@" "--$flag" "$value" 2>&1 >/dev/null)
    status=$?
    want="error: --$flag must be $range, got $value"
    if [ "$status" -ne 1 ] || [ "$err" != "$want" ]; then
        echo "FAIL: $tier --$flag $value: exit $status, stderr '$err'," \
             "want exit 1 and '$want'" >&2
        failures=$((failures + 1))
    fi
done <<'EOF'
server port 70000 in [0, 65535]
server metrics-port 70001 in [-1, 65535]
server max-conns -1 at least 0
server max-pending -1 at least 0
server max-wbuf-kb -1 in [0, 9007199254740991]
server max-frame-kb 9007199254740992 in [0, 9007199254740991]
server cache-mb -1 in [0, 8796093022207]
server store-mb 8796093022208 in [0, 8796093022207]
server max-spec-nodes -1 at least 0
server max-spec-bytes -1 at least 0
router port 70000 in [0, 65535]
router metrics-port -2 in [-1, 65535]
router max-conns -1 at least 0
router max-pending -1 at least 0
router max-wbuf-kb 9007199254740992 in [0, 9007199254740991]
router max-frame-kb -1 in [0, 9007199254740991]
router vnodes 0 in [1, 2147483647]
router upstream-window -1 at least 0
router upstream-queue -1 at least 0
router upstream-wbuf-kb -1 in [0, 9007199254740991]
router retries -1 in [0, 2147483647]
EOF

[ "$failures" -eq 0 ] || exit 1
echo "flag range checks OK"
