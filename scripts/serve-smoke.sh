#!/usr/bin/env bash
# Serving-layer smoke (make serve-smoke): start truthserved on an
# ephemeral port against a generated claims file, curl every /v1
# endpoint (the removed unprefixed paths must answer enveloped 410s
# pointing at /v1), and verify one known answer — the served value must
# equal what cmd/fuse computes from the very same claims. Also exercises
# the error envelope (405/404), ETag revalidation (304 then rotation
# after a live ingest), POST /v1/claims end to end (including ?wait=1
# read-your-writes), SIGTERM graceful shutdown (exit 0 after draining
# and flushing), and the flag validation both commands share: bad
# combinations exit 2, not no-op. A second pass boots a -workers 2
# distributed fleet, checks the merged answers and topology, kills one
# shard worker to assert the enveloped 503, and waits for the
# respawn/reattach recovery.
set -euo pipefail
cd "$(dirname "$0")/.."
GO=${GO:-go}

tmp=$(mktemp -d)
pid=""
cleanup() {
  [ -n "$pid" ] && kill "$pid" 2>/dev/null || true
  rm -rf "$tmp"
}
trap cleanup EXIT

$GO build -o "$tmp/truthserved" ./cmd/truthserved
$GO build -o "$tmp/fuse" ./cmd/fuse
$GO run ./cmd/datagen -domain stock -stocks 40 -day 0 -seed 7 > "$tmp/claims.csv"
"$tmp/fuse" -method AccuPr -in "$tmp/claims.csv" > "$tmp/fused.csv"

# Silent-option footguns must exit 2 (usage) in both commands — assert
# the exact code, so a regression that exits 0 (flags accepted), 1
# (late failure) or 124 (truthserved starts serving and timeout kills
# it) all fail the smoke.
for args in "-max-resident-shards 2" "-shards -3" "-parallel -1"; do
  code=0
  timeout 10 "$tmp/fuse" $args -in "$tmp/claims.csv" >/dev/null 2>&1 || code=$?
  if [ "$code" -ne 2 ]; then
    echo "serve-smoke: fuse $args exited $code, want usage error 2" >&2; exit 1
  fi
  code=0
  timeout 10 "$tmp/truthserved" $args -in "$tmp/claims.csv" -addr 127.0.0.1:0 >/dev/null 2>&1 || code=$?
  if [ "$code" -ne 2 ]; then
    echo "serve-smoke: truthserved $args exited $code, want usage error 2" >&2; exit 1
  fi
done
# Flags a -workers fleet cannot honour are refused before any child is
# spawned.
for args in "-method AccuCopy" "-trust-tolerance 0.05" "-plan warm" "-max-resident-shards 1 -shards 4"; do
  code=0
  timeout 10 "$tmp/truthserved" -workers 2 $args -in "$tmp/claims.csv" -addr 127.0.0.1:0 >/dev/null 2>&1 || code=$?
  if [ "$code" -ne 2 ]; then
    echo "serve-smoke: truthserved -workers 2 $args exited $code, want usage error 2" >&2; exit 1
  fi
done

# -ingest-flush 1 makes every accepted claim flush (and publish)
# immediately, so the ingest check below needs no timing slack.
"$tmp/truthserved" -in "$tmp/claims.csv" -method AccuPr \
  -store "$tmp/store" -addr 127.0.0.1:0 -ingest-flush 1 > "$tmp/serve.log" 2>&1 &
pid=$!

addr=""
for _ in $(seq 1 100); do
  addr=$(grep -o 'http://[0-9.:]*' "$tmp/serve.log" | head -1 || true)
  [ -n "$addr" ] && break
  sleep 0.1
done
if [ -z "$addr" ]; then
  echo "serve-smoke: truthserved did not start" >&2
  cat "$tmp/serve.log" >&2
  exit 1
fi

curl -fsS "$addr/v1/healthz" | grep -q '"status":"ok"'
curl -fsS "$addr/v1/methods" | grep -q '"serving":"AccuPr"'
curl -fsS "$addr/v1/trust" | grep -q '"trust":'
curl -fsS "$addr/v1/stats" | grep -q '"version":1'
curl -fsS "$addr/v1/answers" | grep -q '"count":'
# The unprefixed paths are gone: every one answers an enveloped 410
# pointing at its /v1 replacement, and /v1/stats no longer mentions them.
for p in healthz methods answers trust stats; do
  code=$(curl -s -o /dev/null -w '%{http_code}' "$addr/$p")
  [ "$code" = 410 ] || { echo "serve-smoke: /$p returned $code, want 410" >&2; exit 1; }
done
curl -s "$addr/answers" | grep -q '"code":"use_v1"'
curl -fsS "$addr/v1/stats" | grep -qv 'deprecated'
# The topology object is part of the stats contract (flat engine here).
curl -fsS "$addr/v1/stats" | grep -q '"topology":{"mode":"flat"}'
code=$(curl -s -o /dev/null -w '%{http_code}' "$addr/v1/answers/definitely-not-an-object")
[ "$code" = 404 ] || { echo "serve-smoke: unknown object returned $code, want 404" >&2; exit 1; }

# Error envelope: wrong method is an enveloped 405 with Allow; unknown
# endpoints are enveloped 404s.
curl -s -X POST "$addr/v1/answers" | grep -q '"code":"method_not_allowed"'
curl -sI -X POST "$addr/v1/answers" | grep -qi '^allow: GET'
curl -s "$addr/v1/no-such-endpoint" | grep -q '"code":"not_found"'

# Version-keyed caching: the answers ETag is strong and If-None-Match
# revalidates to an empty 304.
etag=$(curl -fsSI "$addr/v1/answers" | tr -d '\r' | awk -F': ' 'tolower($1)=="etag"{print $2}')
[ -n "$etag" ] || { echo "serve-smoke: /v1/answers carried no ETag" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $etag" "$addr/v1/answers")
[ "$code" = 304 ] || { echo "serve-smoke: revalidation returned $code, want 304" >&2; exit 1; }

# One known answer: row 2 of cmd/fuse's output (object, attribute,
# value) must be served verbatim. Checked before the live ingest below,
# which repricings the very claim set cmd/fuse fused.
obj=$(awk -F, 'NR==2{print $1}' "$tmp/fused.csv")
attr=$(awk -F, 'NR==2{print $2}' "$tmp/fused.csv")
want=$(awk -F, 'NR==2{print $3}' "$tmp/fused.csv")
got=$(curl -fsS "$addr/v1/answers/$obj" | python3 -c '
import json, sys
attr = sys.argv[1]
for a in json.load(sys.stdin)["answers"]:
    if a["attribute"] == attr:
        print(a["value"]); break
' "$attr")
if [ "$got" != "$want" ]; then
  echo "serve-smoke: served $obj/$attr = '$got', cmd/fuse says '$want'" >&2
  exit 1
fi

# Live ingest: repricing one claim from the CSV through POST /v1/claims
# flushes (at -ingest-flush 1) into version 2 — and rotates the ETag, so
# the old tag now misses.
src=$(awk -F, 'NR==2{print $1}' "$tmp/claims.csv")
iobj=$(awk -F, 'NR==2{print $2}' "$tmp/claims.csv")
iattr=$(awk -F, 'NR==2{print $3}' "$tmp/claims.csv")
code=$(curl -s -o /dev/null -w '%{http_code}' -X POST "$addr/v1/claims" \
  -H 'Content-Type: application/json' \
  -d "{\"claims\":[{\"source\":\"$src\",\"object\":\"$iobj\",\"attribute\":\"$iattr\",\"value\":\"123.45\"}]}")
[ "$code" = 202 ] || { echo "serve-smoke: POST /v1/claims returned $code, want 202" >&2; exit 1; }
ok=""
for _ in $(seq 1 100); do
  if curl -fsS "$addr/v1/stats" | grep -q '"version":2'; then ok=1; break; fi
  sleep 0.1
done
[ -n "$ok" ] || { echo "serve-smoke: ingest never published version 2" >&2; exit 1; }
code=$(curl -s -o /dev/null -w '%{http_code}' -H "If-None-Match: $etag" "$addr/v1/answers")
[ "$code" = 200 ] || { echo "serve-smoke: stale tag after ingest returned $code, want 200" >&2; exit 1; }

# ?wait=1 blocks the post until its batch publishes and answers 200
# with the published version and ETag — read-your-writes, no polling.
ack=$(curl -fsS -X POST "$addr/v1/claims?wait=1" \
  -H 'Content-Type: application/json' \
  -d "{\"claims\":[{\"source\":\"$src\",\"object\":\"$iobj\",\"attribute\":\"$iattr\",\"value\":\"67.89\"}]}")
echo "$ack" | grep -q '"version":3' || {
  echo "serve-smoke: awaited claims post answered '$ack', want version 3" >&2; exit 1; }
echo "$ack" | grep -q '"etag":' || {
  echo "serve-smoke: awaited claims post carried no etag: '$ack'" >&2; exit 1; }

# The planner object is part of the stats contract: each ingest flush
# above went through an engine advance, so /v1/stats must surface its
# recorded decisions — newest first, stamped with the flush's version
# and a recognized execution path.
curl -fsS "$addr/v1/stats" | python3 -c '
import json, sys
p = json.load(sys.stdin)["planner"]
assert p["recorded"] >= 2, p
d = p["decisions"][0]
assert d["path"] in ("local", "warm", "full"), d
assert d["layout"] == "flat", d
assert d["version"] == 3, d
assert d["reason"], d
' || { echo "serve-smoke: planner object missing or malformed in /v1/stats" >&2; exit 1; }

# The runs were persisted (atomically) on publish — version 1 at
# startup, then one version per ingest flush.
ls "$tmp/store" | grep -q '^run-.*\.tdr$'
grep -q 'run-' "$tmp/store/CURRENT"

# SIGTERM shuts down gracefully: drain, flush, persist, exit 0.
kill -TERM "$pid"
code=0
wait "$pid" || code=$?
pid=""
if [ "$code" -ne 0 ]; then
  echo "serve-smoke: SIGTERM exit code $code, want 0" >&2
  cat "$tmp/serve.log" >&2
  exit 1
fi
grep -q 'shut down cleanly at version 3' "$tmp/serve.log" || {
  echo "serve-smoke: no clean-shutdown message in the log" >&2
  cat "$tmp/serve.log" >&2
  exit 1
}

# ---------------------------------------------------------------------
# Distributed pass: the same claims behind -workers 2. The front
# process spawns two shard-worker children, the router scatter-gathers
# the merged answers, and a killed worker turns into an enveloped 503
# until the supervisor respawns and reattaches it.
"$tmp/truthserved" -in "$tmp/claims.csv" -method AccuPr -workers 2 \
  -store "$tmp/dstore" -addr 127.0.0.1:0 -ingest-flush 1 > "$tmp/dist.log" 2>&1 &
pid=$!

daddr=""
for _ in $(seq 1 200); do
  daddr=$(grep 'truthserved: serving on' "$tmp/dist.log" | grep -o 'http://[0-9.:]*' | head -1 || true)
  [ -n "$daddr" ] && break
  sleep 0.1
done
if [ -z "$daddr" ]; then
  echo "serve-smoke: distributed truthserved did not start" >&2
  cat "$tmp/dist.log" >&2
  exit 1
fi

# The merged fleet serves the same known answer as cmd/fuse — the
# bit-identity contract, spot-checked over two worker processes.
dgot=$(curl -fsS "$daddr/v1/answers/$obj" | python3 -c '
import json, sys
attr = sys.argv[1]
for a in json.load(sys.stdin)["answers"]:
    if a["attribute"] == attr:
        print(a["value"]); break
' "$attr")
if [ "$dgot" != "$want" ]; then
  echo "serve-smoke: fleet served $obj/$attr = '$dgot', cmd/fuse says '$want'" >&2
  exit 1
fi
curl -fsS "$daddr/v1/stats" | grep -q '"mode":"distributed"'
curl -fsS "$daddr/v1/stats" | grep -q '"coordinator"'
curl -fsS "$daddr/v1/stats" | grep -q '"router"'

# Kill worker 1: the affected reads answer the worker_unavailable
# envelope, then the supervisor respawns and reattaches the worker and
# the fleet serves whole merged answers again at a fresh version.
pkill -9 -f -- '-dist-worker 1' || { echo "serve-smoke: no worker 1 process to kill" >&2; exit 1; }
sleep 0.2
curl -s "$daddr/v1/answers" | grep -q '"code":"worker_unavailable"' || {
  echo "serve-smoke: killed worker did not surface a worker_unavailable envelope" >&2
  exit 1
}
ok=""
for _ in $(seq 1 300); do
  if curl -fsS "$daddr/v1/answers" 2>/dev/null | grep -q '"count":'; then ok=1; break; fi
  sleep 0.1
done
[ -n "$ok" ] || {
  echo "serve-smoke: fleet never recovered after the worker kill" >&2
  cat "$tmp/dist.log" >&2
  exit 1
}
grep -q 'worker 1 reattached' "$tmp/dist.log" || {
  echo "serve-smoke: no reattach message in the distributed log" >&2
  cat "$tmp/dist.log" >&2
  exit 1
}

# SIGTERM the front: children are reaped and the exit is clean.
kill -TERM "$pid"
code=0
wait "$pid" || code=$?
pid=""
if [ "$code" -ne 0 ]; then
  echo "serve-smoke: distributed SIGTERM exit code $code, want 0" >&2
  cat "$tmp/dist.log" >&2
  exit 1
fi
grep -q 'shut down cleanly' "$tmp/dist.log" || {
  echo "serve-smoke: no clean-shutdown message in the distributed log" >&2
  cat "$tmp/dist.log" >&2
  exit 1
}

echo "serve-smoke: OK ($obj/$attr = $want served from $addr; ingest + graceful shutdown + 2-worker fleet kill/recover verified)"
