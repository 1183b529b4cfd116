#!/usr/bin/env bash
# End-to-end smoke of the overlayd provisioning daemon: boot it, stream a
# delta burst at it, check the placement and SLO surfaces, check that a
# stalled partial request header is cut off, SIGTERM it, and restart from
# the shutdown snapshot asserting the resume is warm —
# byte-identical placement responses across the restart, the persisted
# basis adopted (ft_updates > 0), and fewer refactorizations than the cold
# boot needed. Finally the ingested event log is exported as a scenario
# and replayed through overlaylive.
#
#   daemon-smoke.sh [PORT]
#
# Artifacts (daemon-*.json/.log, placement-*.json) land in the cwd.
set -euo pipefail
PORT=${1:-9151}
BASE="http://127.0.0.1:$PORT"
BASE2="http://127.0.0.1:$((PORT + 1))"

go build -o overlayd ./cmd/overlayd
go build -o overlaylive ./cmd/overlaylive

./overlayd -listen "127.0.0.1:$PORT" -scenario streamwave -seed 7 \
  -snapshot daemon-snap.json -pressure -1 > daemon-run.log 2>&1 &
OD=$!
.github/scripts/wait-http.sh "$BASE/healthz"

# Cold-boot baseline: epoch 0's provisioning solve factorizes from scratch.
curl -sf "$BASE/status" > daemon-cold-status.json
jq -e '.epoch == 0 and .totals.solves == 1 and .last.audit_ok' daemon-cold-status.json
COLD_REFACS=$(jq '.last.refactorizations' daemon-cold-status.json)
test "$COLD_REFACS" -ge 1

# Delta burst — subscription joins plus a fanout change — then force the
# epoch-1 solve and check the placement and SLO read surfaces.
curl -sf -X POST --data-binary @- "$BASE/deltas" <<'EOF'
[
  {"note": "joins", "set_threshold": [{"sink": 0, "value": 0.35}, {"sink": 3, "value": 0.4}]},
  {"note": "fanout", "set_fanout": [{"ref": 0, "value": 6}]}
]
EOF
curl -sf -X POST "$BASE/solve" > daemon-solve1.json
jq -e '.epoch == 1 and .edits == 3 and .audit_ok' daemon-solve1.json

curl -sf "$BASE/placement?sink=0" > placement-pre.json
jq -e '
  .sink == 0 and .epoch == 1
  and (.streams | length) >= 2
  and ([.streams[] | select(.active)] | length) >= 1
  and ([.streams[] | select(.active) | (.reflectors | length) > 0 and .met] | all)
' placement-pre.json
# The verdict itself depends on how many sinks the solver individually
# satisfies (~the 0.5 default target); the smoke pins the surface's shape:
# both breakdown axes populated, the window parameters as configured.
curl -sf "$BASE/slo" > daemon-slo.json
jq -e '
  .window == 8 and .target == 0.5
  and (.streams | length) >= 2
  and (.regions | length) >= 1
  and ([.streams[] | has("frac") and has("window_frac") and has("active_sinks")] | all)
' daemon-slo.json
curl -sf "$BASE/metrics" > daemon-metrics.txt
.github/scripts/check-metric-families.sh daemon-metrics.txt \
  overlay_epochs_total overlay_stream_slo_availability \
  overlay_lp_ft_updates_total overlay_lp_refactorizations_total
# The per-epoch families carry values, not just names: every solve so far
# (epoch 0 and the forced epoch 1) observed the epoch-wall histogram and
# counted an epoch.
SOLVES=$(curl -sf "$BASE/status" | jq '.totals.solves')
test "$SOLVES" -eq 2
awk -v n="$SOLVES" '
  $1 == "overlay_epoch_wall_seconds_count" { wall = $2 }
  $1 == "overlay_epochs_total" { epochs = $2 }
  END { exit (wall == n && epochs == n) ? 0 : 1 }
' daemon-metrics.txt

# A client that sends a partial request header and then stalls must be
# cut off once the daemon's 5 s header timeout passes, instead of holding a
# connection and a goroutine forever. The server closes without a reply, so
# the read ends at EOF; the outer timeout bounds the wait if it never does.
exec 3<>"/dev/tcp/127.0.0.1/$PORT"
printf 'GET /healthz HTTP/1.1\r\nHost: 127.0.0.1\r\n' >&3
STALL_START=$(date +%s)
if ! timeout 20 cat <&3 > /dev/null; then
  echo "a connection with a partial header was still open after 20 s" >&2
  exit 1
fi
STALL_SECS=$(($(date +%s) - STALL_START))
exec 3<&-
test "$STALL_SECS" -ge 4

kill -TERM "$OD"
wait "$OD"
grep -q "shut down cleanly" daemon-run.log

# Warm restart from the shutdown snapshot.
./overlayd -listen "127.0.0.1:$((PORT + 1))" -scenario streamwave -seed 7 \
  -snapshot daemon-snap.json -resume -pressure -1 > daemon-resume.log 2>&1 &
OD2=$!
.github/scripts/wait-http.sh "$BASE2/healthz"
grep -q "resumed from daemon-snap.json" daemon-resume.log

curl -sf "$BASE2/status" > daemon-resumed-status.json
jq -e '.epoch == 1 and .pending_deltas == 0' daemon-resumed-status.json
curl -sf "$BASE2/placement?sink=0" > placement-post.json
cmp placement-pre.json placement-post.json

curl -sf -X POST "$BASE2/solve" > daemon-solve2.json
jq -e '.epoch == 2 and .audit_ok and .ft_updates > 0 and .lp_rebuilds == 0' daemon-solve2.json
WARM_REFACS=$(jq '.refactorizations' daemon-solve2.json)
test "$WARM_REFACS" -lt "$COLD_REFACS"

# The ingested event log replays as a scenario.
curl -sf "$BASE2/scenario" > daemon-scenario.json
jq -e '.name == "overlayd" and (.events | length) == 2' daemon-scenario.json
./overlaylive -replay daemon-scenario.json -policy warm -json daemon-replay.json
jq -e '[.runs[].all_audit_ok] | all' daemon-replay.json

kill -TERM "$OD2"
wait "$OD2"
echo "daemon smoke passed: cold refactorizations=$COLD_REFACS, warm=$WARM_REFACS"
