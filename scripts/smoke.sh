#!/usr/bin/env bash
# smoke.sh runs one of the serving smokes end to end against real
# daemons on localhost, driven with curl, jq and aigw:
#
#   scripts/smoke.sh aigd|sketch|cluster|rolling_restart
#
# CI runs each smoke as its own step; `make smoke` runs all four.
# Binaries and scratch files go under $TMPDIR (default /tmp). The
# smokes listen on 127.0.0.1 ports 8347, 8351-8353, 8358 and 8361-8363.
set -euxo pipefail
# Under pipefail a reader that quits early (grep -q, head -1) fails the
# pipeline when its producer then dies of SIGPIPE (141) or curl exits
# 23. So output is checked from a file, and a pipe's reader reads to
# the end (sed -n 1p, tail, jq).
cd "$(dirname "$0")/.."
T=${TMPDIR:-/tmp}
# A failed assertion must not leave daemons holding the ports.
trap 'kill $(jobs -p) 2>/dev/null || true' EXIT

# aigd smoke: boot the daemon with tracing, submit two synthesized
# AIGs, score them under a known traceparent, pull the trace back
# by ID and assert the queue-wait and cache-attribution spans are
# in it, then verify SIGTERM drains to a clean (zero) exit.
smoke_aigd() {
  go build -o $T/aigd ./cmd/aigd
  go run ./cmd/aigsynth -spec present_sbox_all -recipe sop $T/a.aag
  go run ./cmd/aigsynth -spec present_sbox_all -recipe bdd $T/b.aag
  $T/aigd -addr 127.0.0.1:8347 -trace -events $T/access.jsonl &
  AIGD_PID=$!
  for i in $(seq 1 50); do
    curl -sf localhost:8347/healthz > /dev/null && break
    sleep 0.2
  done
  A=$(curl -sf --data-binary @$T/a.aag localhost:8347/v1/aigs | sed -E 's/.*"fingerprint":"([^"]*)".*/\1/')
  B=$(curl -sf --data-binary @$T/b.aag localhost:8347/v1/aigs | sed -E 's/.*"fingerprint":"([^"]*)".*/\1/')
  TID=0123456789abcdef0123456789abcdef
  TP="00-${TID}-00f067aa0ba902b7-01"
  curl -sf -D $T/hdrs.txt -H "traceparent: $TP" \
    -d "{\"a\":\"$A\",\"b\":\"$B\",\"metrics\":[\"VEO\",\"RGC\"]}" \
    localhost:8347/v1/metrics | tee $T/scores.json
  grep -q '"VEO"' $T/scores.json
  # The daemon adopted our trace ID and echoed it back.
  grep -qi "X-Trace-Id: $TID" $T/hdrs.txt
  # The trace decomposes the request: queue wait plus per-metric
  # cache attribution (async span ends can trail the response).
  for i in $(seq 1 50); do
    curl -sf "localhost:8347/v1/debug/traces/$TID" > $T/trace.json || true
    grep -q 'service/queue_wait' $T/trace.json &&
      grep -q 'cache_lookup' $T/trace.json && break
    sleep 0.2
  done
  grep -q 'service/queue_wait' $T/trace.json
  grep -q 'cache_lookup' $T/trace.json
  grep -q 'service/pair_scores' $T/trace.json
  # RED metrics for the endpoint made it to /metrics, and the
  # access log carries the trace ID.
  curl -sf localhost:8347/metrics > $T/metrics.txt
  grep -q 'repro_service_red_post_v1_metrics_requests_total 1' $T/metrics.txt
  grep -q "\"trace_id\":\"$TID\"" $T/access.jsonl
  kill -TERM "$AIGD_PID"
  wait "$AIGD_PID"
}

# Sketch smoke: boot aigd, submit a 128-graph suite corpus, then
# exercise the retrieval surface end to end — the sketch-pruned
# k-NN query must agree with the exact small-corpus scan under
# the same echoed trace ID (identical top-1, >=6/8 overlap), the
# aigw subcommands must drive both endpoints, and diverse
# selection must be byte-identical across runs.
smoke_sketch() {
  go build -o $T/aigd ./cmd/aigd
  go build -o $T/aigw ./cmd/aigw
  go run ./cmd/aigsynth -suite-dir $T/sketch_corpus -limit 128
  $T/aigd -addr 127.0.0.1:8358 -trace &
  AIGD_PID=$!
  for i in $(seq 1 50); do
    curl -sf localhost:8358/healthz > /dev/null && break
    sleep 0.2
  done
  Q=
  for f in $T/sketch_corpus/*.aag; do
    FP=$(curl -sf --data-binary @"$f" localhost:8358/v1/aigs | sed -E 's/.*"fingerprint":"([^"]*)".*/\1/')
    Q=${Q:-$FP}
  done
  TID=aabbccdd00112233aabbccdd00112233
  TP="00-${TID}-00f067aa0ba902b7-01"
  # Sketch-pruned and exact top-k under the same trace.
  curl -sf -D $T/hn1.txt -H "traceparent: $TP" \
    -d "{\"fp\":\"$Q\",\"k\":8}" localhost:8358/v1/neighbors > $T/nn.json
  curl -sf -D $T/hn2.txt -H "traceparent: $TP" \
    -d "{\"fp\":\"$Q\",\"k\":8,\"exact\":true}" localhost:8358/v1/neighbors > $T/nn_exact.json
  grep -qi "X-Trace-Id: $TID" $T/hn1.txt
  grep -qi "X-Trace-Id: $TID" $T/hn2.txt
  # The pruned query really pruned (evals < corpus) ...
  jq -e '.exact == false and .evals < .corpus' $T/nn.json
  jq -e '.exact == true' $T/nn_exact.json
  # ... and still agrees with ground truth.
  jq -r '.neighbors[].fingerprint' $T/nn.json > $T/approx.txt
  jq -r '.neighbors[].fingerprint' $T/nn_exact.json > $T/exact.txt
  [ "$(head -1 $T/approx.txt)" = "$(head -1 $T/exact.txt)" ]
  [ "$(grep -cxFf $T/exact.txt $T/approx.txt)" -ge 6 ]
  # The gateway subcommands drive the same endpoints.
  PEERS="n1=http://127.0.0.1:8358"
  $T/aigw -peers "$PEERS" neighbors -k 8 "$Q" | jq -e '.neighbors | length == 8'
  $T/aigw -peers "$PEERS" diverse -k 8 > $T/div1.json
  jq -e '.chosen | length == 8' $T/div1.json
  # Diverse selection is byte-identical across runs.
  $T/aigw -peers "$PEERS" diverse -k 8 > $T/div2.json
  diff $T/div1.json $T/div2.json
  kill -TERM "$AIGD_PID"
  wait "$AIGD_PID"
}

# Cluster smoke: boot a 3-node cluster, submit through the aigw
# gateway, score a pair under a known traceparent, then kill the
# pair's ring owner and assert a replica answers with byte-
# identical scores JSON and the same echoed trace ID.
smoke_cluster() {
  go build -o $T/aigd ./cmd/aigd
  go build -o $T/aigw ./cmd/aigw
  go run ./cmd/aigsynth -spec present_sbox_all -recipe sop $T/a.aag
  go run ./cmd/aigsynth -spec present_sbox_all -recipe bdd $T/b.aag
  PEERS="n1=http://127.0.0.1:8351,n2=http://127.0.0.1:8352,n3=http://127.0.0.1:8353"
  declare -A PIDS
  for i in 1 2 3; do
    $T/aigd -addr 127.0.0.1:835$i -trace -node-id n$i -peers "$PEERS" &
    PIDS[n$i]=$!
  done
  for i in 1 2 3; do
    for t in $(seq 1 50); do
      curl -sf 127.0.0.1:835$i/healthz > /dev/null && break
      sleep 0.2
    done
  done
  A=$($T/aigw -peers "$PEERS" submit $T/a.aag | sed -En 's/.*"fingerprint": "([^"]*)".*/\1/p')
  B=$($T/aigw -peers "$PEERS" submit $T/b.aag | sed -En 's/.*"fingerprint": "([^"]*)".*/\1/p')
  OWNER=$($T/aigw -peers "$PEERS" route "$A" "$B" | sed -n 1p)
  OWNER_PORT=835${OWNER#n}
  SURVIVOR=$($T/aigw -peers "$PEERS" route "$A" "$B" | tail -1)
  SURVIVOR_PORT=835${SURVIVOR#n}
  TID=00112233445566778899aabbccddeeff
  TP="00-${TID}-00f067aa0ba902b7-01"
  curl -sf -D $T/h1.txt -H "traceparent: $TP" \
    -d "{\"a\":\"$A\",\"b\":\"$B\"}" "127.0.0.1:$OWNER_PORT/v1/metrics" > $T/s1.json
  grep -qi "X-Trace-Id: $TID" $T/h1.txt
  # Kill the owner; the replica must return identical scores and
  # still stitch the request onto the same trace ID.
  kill -9 "${PIDS[$OWNER]}"
  curl -sf -D $T/h2.txt -H "traceparent: $TP" --retry 3 \
    -d "{\"a\":\"$A\",\"b\":\"$B\"}" "127.0.0.1:$SURVIVOR_PORT/v1/metrics" > $T/s2.json
  diff $T/s1.json $T/s2.json
  grep -qi "X-Trace-Id: $TID" $T/h2.txt
  # health exits 1 while a member is down; the assertion here is
  # the report, not the exit code.
  ($T/aigw -peers "$PEERS" health || true) > $T/health.txt
  grep -q "$OWNER down" $T/health.txt
  for id in n1 n2 n3; do
    [ "$id" = "$OWNER" ] || kill -TERM "${PIDS[$id]}"
  done
  for id in n1 n2 n3; do
    [ "$id" = "$OWNER" ] || wait "${PIDS[$id]}"
  done
}

# Rolling-restart smoke: boot a 3-node cluster, warm a scored
# pair, then roll node n1 through the full membership lifecycle —
# drain (evicted from routing, 503 + Retry-After on its external
# surface), stop, rejoin (-join boot + aigw join at the next
# epoch), backfill — while scores stay byte-identical under one
# echoed trace ID and no client request fails. The rejoined node
# must serve the pair without recomputing (its stores were
# refilled by handoff, not by fresh work).
smoke_rolling_restart() {
  go build -o $T/aigd ./cmd/aigd
  go build -o $T/aigw ./cmd/aigw
  go run ./cmd/aigsynth -spec present_sbox_all -recipe sop $T/a.aag
  go run ./cmd/aigsynth -spec present_sbox_all -recipe bdd $T/b.aag
  PEERS="n1=http://127.0.0.1:8361,n2=http://127.0.0.1:8362,n3=http://127.0.0.1:8363"
  declare -A PIDS
  for i in 1 2 3; do
    $T/aigd -addr 127.0.0.1:836$i -trace -node-id n$i -peers "$PEERS" &
    PIDS[n$i]=$!
  done
  for i in 1 2 3; do
    for t in $(seq 1 50); do
      curl -sf 127.0.0.1:836$i/healthz > /dev/null && break
      sleep 0.2
    done
  done
  A=$($T/aigw -peers "$PEERS" submit $T/a.aag | sed -En 's/.*"fingerprint": "([^"]*)".*/\1/p')
  B=$($T/aigw -peers "$PEERS" submit $T/b.aag | sed -En 's/.*"fingerprint": "([^"]*)".*/\1/p')
  TID=ffeeddccbbaa99887766554433221100
  TP="00-${TID}-00f067aa0ba902b7-01"
  # Baseline scores: via the gateway and via a node that will
  # survive the roll (n2), under the trace ID the whole
  # sequence is stitched onto.
  $T/aigw -peers "$PEERS" metrics "$A" "$B" > $T/m0.json
  curl -sf -D $T/rh0.txt -H "traceparent: $TP" \
    -d "{\"a\":\"$A\",\"b\":\"$B\"}" 127.0.0.1:8362/v1/metrics > $T/rs0.json
  grep -qi "X-Trace-Id: $TID" $T/rh0.txt
  # Drain n1: aigw waits until its pre-copy handoff finishes.
  $T/aigw -peers "$PEERS" drain n1 | tee $T/drain.txt
  grep -q 'n1 drained' $T/drain.txt
  # A draining node sheds external work with a backlog-scaled
  # Retry-After, so probes and clients move on ...
  curl -s -o /dev/null -D $T/dh.txt 127.0.0.1:8361/healthz
  grep -q '503' $T/dh.txt
  grep -qi 'Retry-After:' $T/dh.txt
  ($T/aigw -peers "$PEERS" health || true) > $T/health0.txt
  grep -q 'n1 down' $T/health0.txt
  # ... while scores keep answering byte-identically mid-drain.
  $T/aigw -peers "$PEERS" metrics "$A" "$B" > $T/m1.json
  diff $T/m0.json $T/m1.json
  curl -sf -D $T/rh1.txt -H "traceparent: $TP" \
    -d "{\"a\":\"$A\",\"b\":\"$B\"}" 127.0.0.1:8362/v1/metrics > $T/rs1.json
  diff $T/rs0.json $T/rs1.json
  grep -qi "X-Trace-Id: $TID" $T/rh1.txt
  # Stop the drained node cleanly, then boot it back empty as a
  # joiner: receiving-only until the others backfill it.
  kill -TERM "${PIDS[n1]}"
  wait "${PIDS[n1]}"
  $T/aigd -addr 127.0.0.1:8361 -trace -node-id n1 -peers "$PEERS" -join &
  PIDS[n1]=$!
  for t in $(seq 1 50); do
    curl -sf 127.0.0.1:8361/v1/cluster/status > /dev/null && break
    sleep 0.2
  done
  # Readmit it at the next epoch; aigw waits for the install.
  $T/aigw -peers "$PEERS" join n1=http://127.0.0.1:8361
  for t in $(seq 1 50); do
    $T/aigw -peers "$PEERS" status > $T/status.txt || true
    [ "$(grep -c 'epoch=2 state=active' $T/status.txt)" = 3 ] && break
    sleep 0.2
  done
  grep -q '^n1 epoch=2 state=active' $T/status.txt
  $T/aigw -peers "$PEERS" health | tee $T/health1.txt
  grep -q 'n1 ok' $T/health1.txt
  # The rejoined node serves the warmed pair bit-identically
  # without computing anything: its answer comes from the
  # backfilled stores (or a peer fill), never fresh work.
  curl -sf -D $T/rh2.txt -H "traceparent: $TP" \
    -d "{\"a\":\"$A\",\"b\":\"$B\"}" 127.0.0.1:8361/v1/metrics > $T/rs2.json
  diff $T/rs0.json $T/rs2.json
  grep -qi "X-Trace-Id: $TID" $T/rh2.txt
  if curl -sf 127.0.0.1:8361/metrics | grep 'repro_service_metric_computes_total [1-9]'; then
    echo '::error::rejoined node recomputed a pair that handoff should have backfilled'
    exit 1
  fi
  # Operator output is deterministic: two probes diff clean.
  $T/aigw -peers "$PEERS" health > $T/health2.txt
  diff $T/health1.txt $T/health2.txt
  for id in n1 n2 n3; do kill -TERM "${PIDS[$id]}"; done
  for id in n1 n2 n3; do wait "${PIDS[$id]}"; done
}

case "${1:-}" in
  aigd | sketch | cluster | rolling_restart) "smoke_$1" ;;
  *)
    echo "usage: $0 aigd|sketch|cluster|rolling_restart" >&2
    exit 2
    ;;
esac
