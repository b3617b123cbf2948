#!/bin/sh
# End-to-end check of the networked scheduling server: starts
# schedule_server on an ephemeral port, drives concurrent clients in
# BOTH protocols — text v2 (tagged out-of-order answers, one cancel
# id=N, one abrupt disconnect mid-batch) and binary v3 (magic
# negotiation, one pipelined batch frame, hostile frames: garbage
# magic, oversized length, truncated length prefix) — probes liveness
# with ping/stats (including the v3 protocol counters), checks a
# unix-domain-socket instance, then SIGTERMs and asserts a clean
# graceful drain (exit 0). Run by CTest as schedule_server_e2e with the
# binary path as $1 — and by the ASan/TSan CI jobs, where the
# abrupt-disconnect ticket cleanup and the v3 in-place parse path are
# leak- and race-checked for real.
#
# The observability surface rides along: the server runs with
# --metrics-port 0 --slow-ms 5, the Prometheus endpoint is scraped
# mid-load and again after, both scrapes go through
# scripts/check_prometheus.py (format + counters monotonic), the trace
# verb is driven start -> dump -> stop and its JSON checked, and the
# slow-request log is asserted in stderr.
set -eu

bin="$1"
checker="$(dirname "$0")/check_prometheus.py"
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# Enough heavy interactive work to pin every pool worker with queue to
# spare (the pool sizes itself to the core count), so the bulk request
# behind it is still queued when its cancel arrives. The server's
# per-connection window must clear it, whatever the core count.
backlog=$((2 * $(nproc) + 6))

# Created before the launch, so polling it cannot race the backgrounded
# shell's own redirection: under set -e, sed on a not-yet-created file
# would end the script within milliseconds on a loaded machine.
: > "$workdir/stdout"
"$bin" --port 0 --max-pending $((backlog + 16)) --store-mb 64 \
    --metrics-port 0 --slow-ms 5 --trace-dir "$workdir" \
    > "$workdir/stdout" 2> "$workdir/stderr" &
server_pid=$!

fail() {
    echo "FAIL: $1" >&2
    kill "$server_pid" 2>/dev/null || true
    exit 1
}

# Wait for the (machine-readable) listening line.
port=""
for _ in $(seq 1 100); do
    port=$(sed -n 's/^listening on 127.0.0.1://p' "$workdir/stdout")
    [ -n "$port" ] && break
    kill -0 "$server_pid" 2>/dev/null || fail "server died on startup: \
$(cat "$workdir/stderr")"
    sleep 0.1
done
[ -n "$port" ] || fail "server never printed its port"
# The metrics line follows the listening line; poll for it separately
# so a flush race can't hand us an empty port.
mport=""
for _ in $(seq 1 100); do
    mport=$(sed -n 's/^metrics on 127.0.0.1://p' "$workdir/stdout")
    [ -n "$mport" ] && break
    sleep 0.1
done
[ -n "$mport" ] || fail "server never printed its metrics port"

python3 - "$port" "$backlog" "$mport" "$workdir" \
    <<'EOF' || fail "client driver reported a failure"
import socket, struct, sys, threading, urllib.request

port = int(sys.argv[1])
backlog = int(sys.argv[2])
mport = int(sys.argv[3])
workdir = sys.argv[4]
errors = []

def scrape(path):
    url = f"http://127.0.0.1:{mport}/metrics"
    with urllib.request.urlopen(url, timeout=30) as resp:
        ctype = resp.headers.get("Content-Type", "")
        body = resp.read()
    if not ctype.startswith("text/plain"):
        raise AssertionError(f"/metrics content-type {ctype!r}")
    with open(path, "wb") as f:
        f.write(body)

# --- protocol v3 plumbing (mirrors src/net/frame.hpp) -------------------
MAGIC = b"\xb3TS3"
OP_BATCH, OP_RESPONSE = 0x02, 0x81
FLAG_OK, FLAG_HAS_ID = 0x01, 0x02
CODE_BAD_REQUEST = 7

def frame(op, flags=0, payload=b""):
    return struct.pack("<BBHI", op, flags, 0, len(payload)) + payload

def batch_frame(lines):
    payload = struct.pack("<I", len(lines))
    for line in lines:
        raw = line.encode()
        payload += struct.pack("<I", len(raw)) + raw
    return frame(OP_BATCH, 0, payload)

def recv_frames(sock):
    """Reads to EOF and splits into (opcode, flags, payload) frames."""
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    frames, off = [], 0
    while off + 8 <= len(data):
        op, flags, reserved, length = struct.unpack_from("<BBHI", data, off)
        off += 8
        frames.append((op, flags, data[off:off + length]))
        off += length
    if off != len(data):
        raise AssertionError(f"server sent a partial frame ({len(data)-off} "
                             "trailing bytes)")
    return frames

def connect():
    return socket.create_connection(("127.0.0.1", port), timeout=30)

def recv_lines(sock):
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    return [l for l in data.decode().split("\n") if l]

def orderly_client():
    """Tagged requests answered out of order + a cancel on a queued one."""
    try:
        s = connect()
        lines = []
        for i in range(backlog):
            lines.append(f"synthetic:20000:1 ParDeepestFirst {2+i} "
                         f"priority=interactive id={100+i}")
        # A tree spec no other client touches: if a concurrent client
        # cached the same (tree, algo, p) first, the I/O-thread cache
        # fast path would answer id=7 before the cancel line landed.
        lines.append("random:211:1 Liu 1 priority=bulk id=7")
        lines.append("cancel id=7")
        s.sendall(("\n".join(lines) + "\n").encode())
        s.shutdown(socket.SHUT_WR)
        replies = recv_lines(s)
        s.close()
        if len(replies) != backlog + 1:
            raise AssertionError(
                f"expected {backlog + 1} answers ({backlog} ok + 1 "
                f"cancelled), got {len(replies)}: {replies[:3]}...")
        def fields(reply):
            return dict(kv.split("=", 1) for kv in reply.split()
                        if "=" in kv)
        tags = {int(fields(r)["id"]) for r in replies if "id" in fields(r)}
        if tags != set(range(100, 100 + backlog)) | {7}:
            raise AssertionError(f"missing/duplicate tags: {sorted(tags)}")
        id7 = [r for r in replies if fields(r).get("id") == "7"]
        if len(id7) != 1 or fields(id7[0]).get("code") != "cancelled":
            raise AssertionError(f"id=7 was not answered cancelled: {id7}")
        oks = [r for r in replies if r.startswith("ok ")]
        if len(oks) != backlog:
            raise AssertionError(
                f"expected {backlog} ok answers, got {len(oks)}")
    except Exception as e:  # noqa: BLE001
        errors.append(f"orderly client: {e}")

def abrupt_client():
    """Submits a batch and vanishes mid-flight; the server must cancel
    its queued work and survive."""
    try:
        s = connect()
        lines = [f"synthetic:20000:1 ParDeepestFirst {30+i} "
                 f"priority=interactive id={i}" for i in range(16)]
        s.sendall(("\n".join(lines) + "\n").encode())
        s.close()  # nothing read: abrupt disconnect
    except Exception as e:  # noqa: BLE001
        errors.append(f"abrupt client: {e}")

def v3_client():
    """Binary mode: magic + ONE batch frame of tagged requests, answers
    decoded from response frames (out-of-order legal, ids make it
    attributable)."""
    try:
        s = connect()
        s.sendall(MAGIC + batch_frame(
            [f"random:200:1 Liu {2 + i} id={i}" for i in range(8)]))
        s.shutdown(socket.SHUT_WR)
        frames = recv_frames(s)
        s.close()
        ids = set()
        for op, flags, payload in frames:
            if op != OP_RESPONSE or not (flags & FLAG_OK) \
                    or not (flags & FLAG_HAS_ID):
                raise AssertionError(
                    f"unexpected frame op={op:#x} flags={flags:#x}")
            ids.add(struct.unpack_from("<Q", payload, 0)[0])
        if ids != set(range(8)):
            raise AssertionError(f"missing/duplicate v3 ids: {sorted(ids)}")
    except Exception as e:  # noqa: BLE001
        errors.append(f"v3 client: {e}")

def expect_one_bad_request(label, sock):
    """The hostile-frame contract: exactly one typed bad_request
    response frame, then a clean close — never an over-read or a hang."""
    frames = recv_frames(sock)
    sock.close()
    if len(frames) != 1:
        raise AssertionError(f"{label}: expected 1 error frame, "
                             f"got {len(frames)}")
    op, flags, payload = frames[0]
    if op != OP_RESPONSE or (flags & FLAG_OK):
        raise AssertionError(f"{label}: not an error response "
                             f"(op={op:#x} flags={flags:#x})")
    code = struct.unpack_from("<H", payload, 8)[0]
    if code != CODE_BAD_REQUEST:
        raise AssertionError(f"{label}: error code {code}, "
                             f"wanted bad_request")

def hostile_client():
    try:
        s = connect()          # 0xB3 greeting with a garbage magic tail
        s.sendall(b"\xb3XYZ")
        expect_one_bad_request("garbage magic", s)

        s = connect()          # length field claiming a 1 GiB frame
        s.sendall(MAGIC + struct.pack("<BBHI", 0x01, 0, 0, 1 << 30))
        expect_one_bad_request("oversized length", s)

        s = connect()          # half-close inside the length prefix
        s.sendall(MAGIC + b"\x01\x00\x00")
        s.shutdown(socket.SHUT_WR)
        expect_one_bad_request("truncated length prefix", s)
    except Exception as e:  # noqa: BLE001
        errors.append(f"hostile client: {e}")

t1 = threading.Thread(target=orderly_client)
t2 = threading.Thread(target=abrupt_client)
t3 = threading.Thread(target=v3_client)
t1.start(); t2.start(); t3.start()
# First Prometheus scrape mid-load: the endpoint shares the server's
# I/O thread, so answering while the pool is pinned IS the test.
try:
    scrape(f"{workdir}/scrape1.txt")
except Exception as e:  # noqa: BLE001
    errors.append(f"mid-load scrape: {e}")
t1.join(); t2.join(); t3.join()
hostile_client()

# Non-GET and unknown paths must answer typed HTTP errors, not hang.
try:
    with urllib.request.urlopen(f"http://127.0.0.1:{mport}/nope",
                                timeout=30) as resp:
        errors.append(f"GET /nope answered {resp.status}, wanted 404")
except urllib.error.HTTPError as e:
    if e.code != 404:
        errors.append(f"GET /nope answered {e.code}, wanted 404")
except Exception as e:  # noqa: BLE001
    errors.append(f"GET /nope: {e}")

# Liveness probe after the chaos: ping + stats must answer immediately,
# and the stats vocabulary must carry the v3 protocol counters.
s = connect()
s.sendall(b"ping id=1\nstats id=2\n")
s.shutdown(socket.SHUT_WR)
replies = recv_lines(s)
s.close()
if len(replies) != 2 or replies[0] != "pong id=1":
    errors.append(f"ping/stats probe failed: {replies}")
elif not replies[1].startswith("stats id=2 "):
    errors.append(f"stats line malformed: {replies[1]}")
else:
    stats = dict(kv.split("=", 1) for kv in replies[1].split()[2:])
    if int(stats.get("queue_cancelled", 0)) < 1:
        errors.append(f"expected cancelled tickets in stats: {replies[1]}")
    if int(stats.get("v3_conns", 0)) < 1:
        errors.append(f"expected a v3 connection in stats: {replies[1]}")
    if int(stats.get("batch_requests", 0)) < 8:
        errors.append(f"expected batched requests in stats: {replies[1]}")
    if int(stats.get("frames_bad", 0)) < 3:
        errors.append(f"expected the hostile frames counted: {replies[1]}")
    if "net_e2e_count" not in stats or "stage_compute_count" not in stats:
        errors.append(f"stats line lacks histogram summaries: {replies[1]}")

# Trace verb: start -> schedule under tracing -> dump -> stop, pinning
# the stats-shaped reply grammar at each step. The dump names a file
# RELATIVE to the server's --trace-dir; absolute and ".." paths must be
# refused (the arbitrary-file-write guard).
def trace_fields(reply, tag):
    if not reply.startswith(f"trace id={tag} "):
        raise AssertionError(f"bad trace reply: {reply!r}")
    return dict(kv.split("=", 1) for kv in reply.split()[2:])

try:
    s = connect()
    s.sendall(b"trace start id=20\n"
              b"random:250:9 ParSubtrees 4 id=21\n"
              b"trace dump=trace.json id=22\n"
              b"trace stop id=23\n"
              b"trace dump=/tmp/evil.json id=24\n"
              b"trace dump=../evil.json id=25\n")
    s.shutdown(socket.SHUT_WR)
    replies = recv_lines(s)
    s.close()
    # Control verbs answer out of band; key replies by their tag.
    by_tag = {}
    for r in replies:
        for kv in r.split():
            if kv.startswith("id="):
                by_tag[int(kv[3:])] = r
    start = trace_fields(by_tag[20], 20)
    if start.get("enabled") != "1":
        raise AssertionError(f"trace start: {by_tag[20]!r}")
    if not by_tag[21].startswith("ok "):
        raise AssertionError(f"traced schedule failed: {by_tag[21]!r}")
    dump = trace_fields(by_tag[22], 22)
    if "written" not in dump or "spans" not in dump or "dropped" not in dump:
        raise AssertionError(f"trace dump: {by_tag[22]!r}")
    stop = trace_fields(by_tag[23], 23)
    if stop.get("enabled") != "0":
        raise AssertionError(f"trace stop: {by_tag[23]!r}")
    for tag in (24, 25):
        if "code=bad_request" not in by_tag[tag]:
            raise AssertionError(
                f"escaping dump path was not refused: {by_tag[tag]!r}")
except Exception as e:  # noqa: BLE001
    errors.append(f"trace probe: {e}")

# Hostile tree specs over a live socket: this instance runs WITHOUT
# --tree-dir, so file: specs are refused outright; generator counts
# beyond --max-spec-nodes (default 2M) and negative counts each get one
# typed bad_request, no tree is allocated, no filesystem contents leak
# into the error text, and the connection keeps answering.
try:
    s = connect()
    s.sendall(b"file:/etc/passwd Liu 1 id=30\n"
              b"random:2000000000:1 Liu 1 id=31\n"
              b"random:-5:1 Liu 1 id=32\n"
              b"random:100:3 Liu 1 id=33\n")
    s.shutdown(socket.SHUT_WR)
    replies = recv_lines(s)
    s.close()
    by_tag = {}
    for r in replies:
        for kv in r.split():
            if kv.startswith("id="):
                by_tag[int(kv[3:])] = r
    for tag in (30, 31, 32):
        if "code=bad_request" not in by_tag.get(tag, ""):
            raise AssertionError(
                f"hostile spec id={tag} was not refused: "
                f"{by_tag.get(tag)!r}")
    if "root:" in by_tag[30]:
        raise AssertionError(f"error text leaked file contents: {by_tag[30]!r}")
    if not by_tag.get(33, "").startswith("ok "):
        raise AssertionError(
            f"connection died after hostile specs: {by_tag.get(33)!r}")
except Exception as e:  # noqa: BLE001
    errors.append(f"hostile spec probe: {e}")

# Second scrape after the load: check_prometheus.py asserts counters
# only ever moved forward between the two.
try:
    scrape(f"{workdir}/scrape2.txt")
except Exception as e:  # noqa: BLE001
    errors.append(f"post-load scrape: {e}")

if errors:
    print("\n".join(errors), file=sys.stderr)
    sys.exit(1)
EOF

python3 "$checker" "$workdir/scrape1.txt" "$workdir/scrape2.txt" \
    || fail "Prometheus exposition checker rejected the scrapes"
[ -s "$workdir/trace.json" ] || fail "trace dump wrote no file"
grep -q '"traceEvents"' "$workdir/trace.json" \
    || fail "trace dump is not Chrome trace JSON: $(head -c 200 \
"$workdir/trace.json")"
grep -q "slow request" "$workdir/stderr" \
    || fail "no slow-request log despite --slow-ms 5 under pinned load"

# Graceful drain: SIGTERM must answer/cancel everything and exit 0.
kill -TERM "$server_pid"
server_status=0
wait "$server_pid" || server_status=$?
[ "$server_status" -eq 0 ] || fail "server exited $server_status on SIGTERM"
grep -q "drained: all accepted requests answered or cancelled" \
    "$workdir/stderr" || fail "missing drain confirmation: \
$(cat "$workdir/stderr")"

# --- unix-domain socket instance (--unix), both protocols ---------------
sock="$workdir/sched.sock"
"$bin" --unix "$sock" > "$workdir/uds_stdout" 2> "$workdir/uds_stderr" &
server_pid=$!
for _ in $(seq 1 100); do
    grep -q "listening on unix:" "$workdir/uds_stdout" && break
    kill -0 "$server_pid" 2>/dev/null || fail "unix server died on startup: \
$(cat "$workdir/uds_stderr")"
    sleep 0.1
done
[ -S "$sock" ] || fail "unix server never created $sock"

python3 - "$sock" <<'EOF' || fail "unix-socket client reported a failure"
import socket, struct, sys

path = sys.argv[1]

def recv_all(sock):
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    return data

# Text v2 over the unix socket. This instance runs WITHOUT --trace-dir,
# so a trace dump must be refused with a typed error.
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(path)
s.sendall(b"random:200:1 Liu 2 id=5\ntrace dump=x.json id=9\nping\n")
s.shutdown(socket.SHUT_WR)
lines = [l for l in recv_all(s).decode().split("\n") if l]
s.close()
# The pong may legally overtake the schedule answer: health checks
# bypass the pending window while the cache miss computes.
assert len(lines) == 3 and "pong" in lines, lines
assert any(l.startswith("ok id=5 ") for l in lines), lines
assert any("id=9" in l and "code=bad_request" in l for l in lines), \
    f"trace dump without --trace-dir must answer bad_request: {lines}"

# Binary v3 over the unix socket: same request must hit the cache.
s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
s.connect(path)
raw = b"random:200:1 Liu 2 id=6"
s.sendall(b"\xb3TS3" + struct.pack("<BBHI", 0x01, 0, 0, len(raw)) + raw)
s.shutdown(socket.SHUT_WR)
data = recv_all(s)
s.close()
op, flags, reserved, length = struct.unpack_from("<BBHI", data, 0)
assert op == 0x81 and (flags & 0x01) and (flags & 0x04), \
    f"v3-over-unix answer not an ok cache hit: op={op:#x} flags={flags:#x}"
assert struct.unpack_from("<Q", data, 8)[0] == 6
EOF

kill -TERM "$server_pid"
server_status=0
wait "$server_pid" || server_status=$?
[ "$server_status" -eq 0 ] || fail "unix server exited $server_status"
[ ! -e "$sock" ] || fail "socket file not unlinked on drain"

echo "schedule_server e2e OK"
