#!/bin/sh
# End-to-end check of the cluster router: starts two schedule_server
# backend nodes and a schedule_router in front of them (all ephemeral
# ports), then drives the cluster through real sockets — the
# cluster-wide cache probe (warm a tree through one client, hit it from
# a fresh client routed to the same node), protocol transparency (text
# v2 and a binary-v3 batch frame through the router), the aggregated
# stats vocabulary (per-node routing counters + backend_ sums), spec
# hygiene as the nodes' alone (file: specs answered by the node that
# reads them, typed errors included; a router given a spec flag refuses
# to start), the Prometheus endpoint (scraped twice, counters must be monotonic, the
# per-node routed series must carry node="..." labels), and the
# cluster-wide trace path (`trace start` broadcast to every node, a
# merged `trace dump=` whose single Chrome JSON carries one pid and
# process_name per process — router plus both backends). Then one node
# is SIGKILLed — abrupt death, no drain — and the cluster must detect
# it, report nodes_up=1, keep answering every request on the survivor,
# and record the death as a structured node_down event in the
# --log-json event log. Finally the router SIGTERMs to a clean
# graceful drain, which must land drain events in the same log.
# Run by CTest as schedule_cluster_e2e with the router binary as $1 and
# the server binary as $2 — and by the ASan/TSan CI jobs, where the
# node-death forward handoff and the upstream reconnect machinery are
# leak- and race-checked for real.
set -eu

router_bin="$1"
server_bin="$2"
checker="$(dirname "$0")/check_prometheus.py"
workdir=$(mktemp -d)
trap 'rm -rf "$workdir"' EXIT

# The polled output files exist before any launch, so wait_port cannot
# race a backgrounded shell's own redirection (sed on a missing file
# would end the script under set -e).
: > "$workdir/node_a_out"
: > "$workdir/node_b_out"
: > "$workdir/router_out"
# Only the nodes resolve specs, so the spec flags go to them: a tree
# directory holding a 5-node tree and a junk file past the byte bound.
mkdir "$workdir/trees"
printf 'treesched-tree v1\n5\n-1 4 1 3\n0 2 0 1\n0 3 1 2\n1 1 0 1\n1 2 0 4\n' \
    > "$workdir/trees/small.tree"
head -c 70000 /dev/zero | tr '\0' x > "$workdir/trees/big.tree"
"$server_bin" --port 0 --tree-dir "$workdir/trees" \
    --max-spec-nodes 100000 --max-spec-bytes 65536 \
    > "$workdir/node_a_out" 2> "$workdir/node_a_err" &
node_a_pid=$!
"$server_bin" --port 0 --tree-dir "$workdir/trees" \
    --max-spec-nodes 100000 --max-spec-bytes 65536 \
    > "$workdir/node_b_out" 2> "$workdir/node_b_err" &
node_b_pid=$!

fail() {
    echo "FAIL: $1" >&2
    kill "$router_pid" 2>/dev/null || true
    kill "$node_a_pid" "$node_b_pid" 2>/dev/null || true
    exit 1
}
router_pid=""

wait_port() { # $1 = stdout file, $2 = pid, $3 = label
    _port=""
    for _ in $(seq 1 100); do
        _port=$(sed -n 's/^listening on 127.0.0.1://p' "$1")
        [ -n "$_port" ] && break
        kill -0 "$2" 2>/dev/null || fail "$3 died on startup"
        sleep 0.1
    done
    [ -n "$_port" ] || fail "$3 never printed its port"
    echo "$_port"
}

port_a=$(wait_port "$workdir/node_a_out" "$node_a_pid" "node A")
port_b=$(wait_port "$workdir/node_b_out" "$node_b_pid" "node B")

# The spec flags are the nodes' alone: a router refuses them as unknown
# flags (capped, so a router that accepts one cannot hang the script).
spec_flag_status=0
timeout 10 "$router_bin" --port 0 --nodes "127.0.0.1:$port_a" \
    --tree-dir "$workdir/trees" > /dev/null 2> "$workdir/router_spec_err" \
    || spec_flag_status=$?
[ "$spec_flag_status" -eq 1 ] \
    || fail "router given --tree-dir exited $spec_flag_status, want 1"
grep -q "unknown flag --tree-dir" "$workdir/router_spec_err" \
    || fail "router did not refuse --tree-dir: $(cat "$workdir/router_spec_err")"

mkdir "$workdir/traces"
# Every shared client-facing flag is set off its default, loose enough
# for what the clients below send. --max-frame-kb 2 is below the size of
# a node's own stats reply: the backend_ aggregate below shows that the
# router reads its nodes under the protocol's frame bound, not under its
# clients'.
"$router_bin" --port 0 --nodes "127.0.0.1:$port_a,127.0.0.1:$port_b" \
    --metrics-port 0 --health-interval-ms 25 --backoff-ms 50 \
    --trace-dir "$workdir/traces" --log-json "$workdir/events.jsonl" \
    --max-frame-kb 2 --max-conns 32 --max-pending 16 --max-wbuf-kb 128 \
    --drain-timeout-ms 10000 \
    > "$workdir/router_out" 2> "$workdir/router_err" &
router_pid=$!
rport=$(wait_port "$workdir/router_out" "$router_pid" "router")
mport=""
for _ in $(seq 1 100); do
    mport=$(sed -n 's/^metrics on 127.0.0.1://p' "$workdir/router_out")
    [ -n "$mport" ] && break
    sleep 0.1
done
[ -n "$mport" ] || fail "router never printed its metrics port"

python3 - "$rport" "$mport" "$workdir" phase1 \
    <<'EOF' || fail "phase-1 client driver reported a failure"
import json, socket, struct, sys, time, urllib.request

rport, mport, workdir = int(sys.argv[1]), int(sys.argv[2]), sys.argv[3]
errors = []

def connect():
    return socket.create_connection(("127.0.0.1", rport), timeout=30)

def recv_lines(sock):
    data = b""
    while True:
        chunk = sock.recv(65536)
        if not chunk:
            break
        data += chunk
    return [l for l in data.decode().split("\n") if l]

def ask(*lines):
    s = connect()
    s.sendall(("\n".join(lines) + "\n").encode())
    s.shutdown(socket.SHUT_WR)
    replies = recv_lines(s)
    s.close()
    return replies

def stats():
    (line,) = ask("stats")
    assert line.startswith("stats "), line
    return dict(kv.split("=", 1) for kv in line.split()[1:])

def scrape(path):
    with urllib.request.urlopen(f"http://127.0.0.1:{mport}/metrics",
                                timeout=30) as resp:
        body = resp.read()
    with open(path, "wb") as f:
        f.write(body)
    return body.decode()

# Routing needs live backends: the first health tick connects them.
for _ in range(200):
    if int(stats().get("nodes_up", 0)) == 2:
        break
    time.sleep(0.05)
else:
    errors.append(f"backends never came up: {stats()}")

scrape(f"{workdir}/scrape1.txt")

# Cluster-wide cache: warm a tree through one client, then a FRESH
# client sends the same spec — the ring lands it on the same node,
# whose warm result cache must answer.
warm = ask("synthetic:800:3 ParSubtrees 4 id=1")
if len(warm) != 1 or "cache=miss" not in warm[0] or \
        not warm[0].startswith("ok id=1 "):
    errors.append(f"warm request failed: {warm}")
hit = ask("synthetic:800:3 ParSubtrees 4 id=2")
if len(hit) != 1 or "cache=hit" not in hit[0]:
    errors.append(f"cluster-wide cache hit missed: {hit}")

# Protocol transparency: a binary-v3 batch frame through the router.
MAGIC = b"\xb3TS3"
raw_lines = [f"random:150:{i} Liu 1 id={10+i}".encode() for i in range(6)]
payload = struct.pack("<I", len(raw_lines))
for raw in raw_lines:
    payload += struct.pack("<I", len(raw)) + raw
s = connect()
s.sendall(MAGIC + struct.pack("<BBHI", 0x02, 0, 0, len(payload)) + payload)
s.shutdown(socket.SHUT_WR)
data = b""
while True:
    chunk = s.recv(65536)
    if not chunk:
        break
    data += chunk
s.close()
ids, off = set(), 0
while off + 8 <= len(data):
    op, flags, _res, length = struct.unpack_from("<BBHI", data, off)
    off += 8
    if op != 0x81 or not (flags & 0x01):
        errors.append(f"v3 answer not ok: op={op:#x} flags={flags:#x}")
        break
    ids.add(struct.unpack_from("<Q", data, off)[0])
    off += length
if ids != set(range(10, 16)):
    errors.append(f"v3 batch through the router lost answers: {sorted(ids)}")

# file: specs through the router: the router forwards the text, and the
# node that reads the file answers — its tree, or its typed error.
(reply,) = ask("file:small.tree Liu 1 id=40")
if not reply.startswith("ok id=40 ") or " n=5 " not in reply:
    errors.append(f"file: spec through the router not served: {reply}")
(reply,) = ask("file:big.tree Liu 1 id=41")
if not reply.startswith("error id=41 code=bad_request ") or \
        "65536-byte limit" not in reply:
    errors.append(f"oversized file: spec not refused by its node: {reply}")
(reply,) = ask("file:missing.tree Liu 1 id=42")
if not reply.startswith("error id=42 code=bad_request "):
    errors.append(f"missing file: spec not refused by its node: {reply}")

# Cluster-wide tracing: `trace start` broadcasts to every node, traced
# traffic flows, and one `trace dump=` merges the router's spans with a
# live `trace pull` from each backend into a single Chrome JSON — one
# pid and one process_name metadata event per process.
(reply,) = ask("trace start id=90")
if not reply.startswith("trace id=90 ") or "enabled=1" not in reply:
    errors.append(f"trace start refused: {reply}")
for i in range(4):
    ask(f"random:160:{i} Liu 1 id={20+i}")
(reply,) = ask("trace dump=cluster.json id=91")
if not reply.startswith("trace id=91 ") or "nodes_merged=2" not in reply \
        or "pull_failures=0" not in reply:
    errors.append(f"merged trace dump failed: {reply}")
(reply,) = ask("trace status id=92")
if not reply.startswith("trace id=92 ") or \
        "node1_pull_failures=0" not in reply:
    errors.append(f"trace status refused: {reply}")
ask("trace stop id=93")
try:
    with open(f"{workdir}/traces/cluster.json") as f:
        events = json.load(f)["traceEvents"]
    pids = {e["pid"] for e in events}
    procs = {e["args"]["name"] for e in events
             if e.get("ph") == "M" and e.get("name") == "process_name"}
    if pids != {1, 2, 3}:
        errors.append(f"merged dump pids are {sorted(pids)}, want 1..3")
    if "router" not in procs or \
            sum(1 for p in procs if p.startswith("node ")) != 2:
        errors.append(f"merged dump process names are {sorted(procs)}")
    if not any(e.get("ph") == "X" for e in events):
        errors.append("merged dump has no duration spans")
except (OSError, ValueError, KeyError) as e:
    errors.append(f"merged trace dump is not readable Chrome JSON: {e}")

# The aggregated stats vocabulary: per-node routing counters must sum
# to forwarded, and the polled backend_ aggregate must be present. The
# router polls each node's stats only every few health ticks (100 ms
# here), and this client can get here sooner, so wait for the first
# answered poll the way the start waits for nodes_up.
for _ in range(200):
    st = stats()
    if any(k.startswith("backend_") for k in st):
        break
    time.sleep(0.05)
for key in ("nodes", "nodes_up", "forwarded", "responses",
            "node0_routed", "node1_routed", "node0_up", "node1_up"):
    if key not in st:
        errors.append(f"stats line lacks {key}: {st}")
if errors == []:
    if int(st["node0_routed"]) + int(st["node1_routed"]) != \
            int(st["forwarded"]):
        errors.append(f"per-node routed counters do not sum: {st}")
    if int(st["forwarded"]) < 8 or int(st["responses"]) < 8:
        errors.append(f"expected 8+ forwarded/answered requests: {st}")
    if not any(k.startswith("backend_") for k in st):
        errors.append(f"stats line lacks the backend_ aggregate: {st}")

# The router's own metrics endpoint, with per-node labeled series.
body = scrape(f"{workdir}/scrape2.txt")
if "treesched_router_forwarded_total" not in body:
    errors.append("scrape lacks treesched_router_forwarded_total")
if 'treesched_router_node_routed_total{node="127.0.0.1:' not in body:
    errors.append("scrape lacks node-labeled routing counters")

if errors:
    print("\n".join(errors), file=sys.stderr)
    sys.exit(1)
EOF

# Abrupt node death: SIGKILL node B — no drain, sockets just vanish.
# The router must mark it down, keep the survivor serving, and answer
# every request (never hang a client on a dead backend).
kill -KILL "$node_b_pid"
wait "$node_b_pid" 2>/dev/null || true

python3 - "$rport" "$mport" "$workdir" phase2 \
    <<'EOF' || fail "phase-2 (node-death) client driver reported a failure"
import socket, sys, time

rport = int(sys.argv[1])
errors = []

def ask(*lines):
    s = socket.create_connection(("127.0.0.1", rport), timeout=30)
    s.sendall(("\n".join(lines) + "\n").encode())
    s.shutdown(socket.SHUT_WR)
    data = b""
    while True:
        chunk = s.recv(65536)
        if not chunk:
            break
        data += chunk
    s.close()
    return [l for l in data.decode().split("\n") if l]

def stats():
    (line,) = ask("stats")
    return dict(kv.split("=", 1) for kv in line.split()[1:])

for _ in range(200):
    if int(stats().get("nodes_up", 2)) == 1:
        break
    time.sleep(0.05)
else:
    errors.append(f"router never noticed the dead node: {stats()}")

# Every spec must still be answered ok on the survivor — including ones
# whose ring primary is the dead node (the walk skips it).
for i in range(8):
    replies = ask(f"random:170:{i} Liu 1 id={30+i}")
    if len(replies) != 1 or not replies[0].startswith(f"ok id={30+i} "):
        errors.append(f"request after node death not served: {replies}")
        break

st = stats()
if int(st.get("node_failures", 0)) < 1:
    errors.append(f"node death not counted: {st}")

if errors:
    print("\n".join(errors), file=sys.stderr)
    sys.exit(1)
EOF

# The SIGKILLed node must be on the structured event log as a
# node_down record — and every line of that log must be one valid
# JSON object.
grep -q '"event":"node_down"' "$workdir/events.jsonl" \
    || fail "event log lacks a node_down record: $(cat "$workdir/events.jsonl")"
python3 - "$workdir/events.jsonl" <<'EOF' \
    || fail "event log is not valid JSON lines"
import json, sys
with open(sys.argv[1]) as f:
    for lineno, line in enumerate(f, 1):
        obj = json.loads(line)
        assert isinstance(obj, dict) and "event" in obj and "ts_ns" in obj, \
            f"line {lineno} lacks event/ts_ns: {line!r}"
EOF

python3 "$checker" "$workdir/scrape1.txt" "$workdir/scrape2.txt" \
    || fail "Prometheus exposition checker rejected the router scrapes"

# Graceful drain: SIGTERM must answer everything outstanding and exit 0.
kill -TERM "$router_pid"
router_status=0
wait "$router_pid" || router_status=$?
[ "$router_status" -eq 0 ] || fail "router exited $router_status on SIGTERM"
grep -q "drained: all accepted requests answered" "$workdir/router_err" \
    || fail "missing router drain confirmation: $(cat "$workdir/router_err")"
grep -q '"event":"drain_begin"' "$workdir/events.jsonl" \
    && grep -q '"event":"drain_complete"' "$workdir/events.jsonl" \
    || fail "event log lacks the drain records: $(cat "$workdir/events.jsonl")"

kill -TERM "$node_a_pid"
node_status=0
wait "$node_a_pid" || node_status=$?
[ "$node_status" -eq 0 ] || fail "surviving node exited $node_status"

echo "schedule_cluster e2e OK"
