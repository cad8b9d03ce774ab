#!/usr/bin/env bash
# Shard smoke: a daemon `submit --shards 4 --shard-workers 2` job must return
# the same PARITY_FIELDS as the in-process `route --shards 4 --shard-workers 2`
# (both run the shard coordinator), and the daemon must report no pool
# degradation.  Usage: ci/shard_smoke.sh PORT  (under ci/with_daemon.sh)
set -euo pipefail
PORT="$1"
ARGS=(--chip c1 --net-scale 0.4 --rounds 2 --shards 4 --shard-workers 2)

python -m repro submit --port "$PORT" "${ARGS[@]}" --wait --timeout 600 > shard_job.json
python -m repro route "${ARGS[@]}" --json > shard_route.json
python -m repro metrics --port "$PORT" > shard_metrics.json
python - <<'EOF'
import json
from repro.router.metrics import PARITY_FIELDS, RoutingResult

job = json.load(open("shard_job.json"))
assert job["status"] == "done", job
served = RoutingResult.from_dict(job["result"]["result"])
local = RoutingResult.from_dict(json.load(open("shard_route.json")))
for field in PARITY_FIELDS:
    assert getattr(served, field) == getattr(local, field), (field, served, local)
counters = json.load(open("shard_metrics.json"))["counters"]
degraded = {k: v for k, v in counters.items() if k.startswith("pool.degraded.") and v}
assert not degraded, degraded
print("daemon shard job == in-process route on PARITY_FIELDS:", served)
EOF
