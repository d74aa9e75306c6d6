#!/usr/bin/env python3
"""Builds the repository benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload map-readonly-solero --seed 1 --seconds 10 --trace 0

The build goes to $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench)
and is incremental, so only the first run of a checkout pays for it. Build
output goes to stderr; the benchmark's report goes to stdout, and its last
line is the JSON result.

The result holds exactly the metrics BENCHMARK.json lists for the mode: the
end-to-end ones with --trace 0, the per-layer ones with --trace 1. A
per-layer metric of a layer the workload does not reach reads 0; any other
difference from the manifest fails the run.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

WORKLOADS = [f"map-{mix}-{policy}" for mix in ("readonly", "contended")
             for policy in ("solero", "adaptive", "bravo")]
WORKLOADS += ["kv-open-loop", "guest-config"]


def source_digest(root):
    """SHA-256 over the sources the benchmark binary is built from."""
    h = hashlib.sha256()
    files = []
    for sub in ("src", "perfbench"):
        files += [p for p in (root / sub).rglob("*") if p.is_file()]
    files.append(root / "bench" / "GuestPrograms.h")
    for p in sorted(files):
        h.update(str(p.relative_to(root)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def git_sha(root):
    try:
        out = subprocess.run(["git", "-C", str(root), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "none"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "none"


def build(root, build_dir):
    if not (build_dir / "CMakeCache.txt").exists():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(["cmake", "-S", str(root / "perfbench"), "-B",
                        str(build_dir)] + generator,
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", str(build_dir), "--target",
                    "perfbench", "-j", "4"], check=True, stdout=sys.stderr)
    return build_dir / "perfbench"


def conform(result, manifest, trace):
    """Makes the result hold exactly the manifest's metrics for the mode.

    Per-layer metrics the workload did not report read 0. Returns an error
    message, or None when the result conforms.
    """
    wanted = manifest["per_layer" if trace else "end_to_end"]
    metrics = result["metrics"]
    extra = set(metrics) - {m["name"] for m in wanted}
    if extra:
        return f"metrics not in the manifest: {sorted(extra)}"
    for m in wanted:
        got = metrics.get(m["name"])
        if got is None:
            if not trace:
                return f"end-to-end metric {m['name']} missing"
            got = {"value": 0, "unit": m["unit"]}
        if got["unit"] != m["unit"]:
            return f"{m['name']} in {got['unit']}, manifest says {m['unit']}"
        metrics[m["name"]] = got
    result["metrics"] = {m["name"]: metrics[m["name"]] for m in wanted}
    return None


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    root = Path(__file__).resolve().parent.parent
    manifest = json.loads((root / "BENCHMARK.json").read_text())
    if not (root / "src" / "CMakeLists.txt").is_file():
        print("perfbench: no repository sources next to perfbench/; "
              "run from a full checkout", file=sys.stderr)
        return 2
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = root / target
    try:
        binary = build(root, target / "perfbench")
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2

    trace_dir = target / "perfbench-traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    cmd = [str(binary), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--seconds={args.seconds}", f"--trace={args.trace}",
           f"--git-sha={git_sha(root)}", f"--src-digest={source_digest(root)}",
           f"--trace-dir={trace_dir}"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
    lines = proc.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("perfbench: no result line", file=sys.stderr)
        return proc.returncode or 1
    error = conform(result, manifest, args.trace == 1)
    if error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
