#!/usr/bin/env bash
# End-to-end smoke test of the sharded execution path: a 20-iteration
# process-mode campaign through the real CLI, journaled, then the
# journal is checked for shape (meta + one entry per cell) and for
# determinism (a serial rerun must produce byte-identical records).
set -euo pipefail
cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

workdir="$(mktemp -d)"
trap 'rm -rf "$workdir"' EXIT

# --deterministic removes every wall-clock dependence (solver
# deadlines, performance classification), so the two journals below
# must match byte-for-byte.
echo "== process-mode campaign (2 workers, 20 iterations/cell) =="
python -m repro.cli campaign \
    --mode process --workers 2 \
    --iterations 20 --scale 0.0015 --seed 1 --deterministic \
    --journal "$workdir/process.jsonl"

echo "== serial rerun for the determinism check =="
python -m repro.cli campaign \
    --iterations 20 --scale 0.0015 --seed 1 --deterministic \
    --journal "$workdir/serial.jsonl" > /dev/null

python - "$workdir/process.jsonl" "$workdir/serial.jsonl" <<'EOF'
import json, sys

def load(path):
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]

process, serial = load(sys.argv[1]), load(sys.argv[2])
assert process[0]["type"] == "meta", "journal must open with its meta entry"
cells = [e for e in process if e["type"] == "cell"]
assert cells, "campaign journaled no cells"
keys = [(e["solver"], e["family"], e["oracle"]) for e in cells]
assert len(keys) == len(set(keys)), "a cell was journaled twice"
for entry in cells:
    assert entry["report"]["iterations"] == 20
assert process == serial, "process-mode journal differs from serial journal"
print(f"smoke OK: {len(cells)} cells, journals byte-identical across modes")
EOF

if compgen -G "$workdir/*.jsonl.*" > /dev/null; then
    echo "transient files (lease logs, .tmp) left beside a journal" >&2
    exit 1
fi
