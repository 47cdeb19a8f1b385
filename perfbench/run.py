#!/usr/bin/env python3
"""Build and run the SHILL benchmark from the root of a source checkout.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --self-check

The first form builds `perfbench/` (a stand-alone Cargo package with a
path dependency on the repository's `shill` crate) in release mode into
`$CARGO_TARGET_DIR` (default `.bench_build`), then runs one workload. The
last line of standard output is the JSON result. Build output goes to
standard error.

`--self-check` runs every workload of perfbench/spec.json at reduced
length, traced and untraced, and checks that each metric of
BENCHMARK.json is printed with its unit and that the output oracle
passed.
"""

import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
PACKAGE = os.path.relpath(HERE)
RUN_TIMEOUT_S = 170


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def source_id():
    """The commit, read from .git without running git; failing that, a
    digest of the source files the benchmark builds."""
    head = os.path.join(".git", "HEAD")
    if os.path.isfile(head):
        with open(head) as f:
            ref = f.read().strip()
        if not ref.startswith("ref: "):
            return ref
        path = os.path.join(".git", ref[5:])
        if os.path.isfile(path):
            with open(path) as f:
                return f.read().strip()
        packed = os.path.join(".git", "packed-refs")
        if os.path.isfile(packed):
            with open(packed) as f:
                for line in f:
                    parts = line.split()
                    if len(parts) == 2 and parts[1] == ref[5:]:
                        return parts[0]
    digest = hashlib.sha256()
    files = [f for f in ("Cargo.toml", "Cargo.lock") if os.path.isfile(f)]
    for root in ("src", "crates", PACKAGE):
        for dirpath, dirnames, filenames in os.walk(root):
            dirnames[:] = [d for d in dirnames if d != "target"]
            files.extend(os.path.join(dirpath, n) for n in filenames)
    for path in sorted(files):
        digest.update(path.encode())
        with open(path, "rb") as f:
            digest.update(f.read())
    return "src-sha256:" + digest.hexdigest()[:16]


def build():
    for needed in ("Cargo.toml", "src/lib.rs", "crates"):
        if not os.path.exists(needed):
            fail(f"{needed} not found: run from the root of a SHILL source checkout")
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(PACKAGE, "Cargo.toml")]
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return os.path.join(target_dir(), "release", "shill-perfbench")


def run(binary, args, capture=False):
    env = dict(os.environ, PERFBENCH_COMMIT=source_id())
    cmd = [binary, *args, "--out", os.path.join(target_dir(), "perfbench-out")]
    try:
        return subprocess.run(cmd, env=env, timeout=RUN_TIMEOUT_S,
                              stdout=subprocess.PIPE if capture else None, text=True)
    except subprocess.TimeoutExpired:
        fail(f"{' '.join(args)} did not finish within {RUN_TIMEOUT_S} s", 1)


# End-to-end metrics the human-readable table prints besides the gated
# ones: p99 where a run yields at least 1000 ops, session_open_ms only
# for the server.
TABLE_ONLY = {
    "find-fine": ["fail_frac"],
    "pkg-pipeline": ["fail_frac", "latency_ms.p99"],
    "server-rw": ["fail_frac", "latency_ms.p99", "session_open_ms.p50"],
}


def self_check(binary):
    with open("BENCHMARK.json") as f:
        bench = json.load(f)
    with open(os.path.join(PACKAGE, "spec.json")) as f:
        spec = json.load(f)
    problems = []
    for key in ("end_to_end", "per_layer"):
        for m in bench[key]:
            if m["name"] not in spec[key]:
                problems.append(f"spec.json does not describe {key} metric {m['name']}")
    for wl in bench["workloads"]:
        if wl["name"] not in spec["workloads"]:
            problems.append(f"spec.json does not describe workload {wl['name']}")
    for name in spec["workloads"]:
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            proc = run(binary, ["--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace],
                       capture=True)
            where = f"{name} --trace {trace}"
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                problems.append(f"{where}: exit {proc.returncode}")
                continue
            result = json.loads(lines[-1])
            if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{where}: result keys {sorted(result)}")
                continue
            if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
                problems.append(f"{where}: oracle failed ({result['failed']} of {result['attempted']})")
            want = {m["name"]: m["unit"] for m in bench[key]}
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if want != got:
                problems.append(f"{where}: metrics differ from BENCHMARK.json: "
                                f"missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}, "
                                f"units {sorted(n for n in want if n in got and want[n] != got[n])}")
            for n, m in result["metrics"].items():
                if not isinstance(m["value"], (int, float)):
                    problems.append(f"{where}: {n} is not a number")
            if trace == "0":
                rows = [line.split() for line in lines[:-1] if line.startswith(name)]
                table = {r[1]: float(r[2]) for r in rows if len(r) >= 4 and r[1] != "span"}
                for n in [*want, *TABLE_ONLY[name]]:
                    short = n == "latency_ms.p99" and table.get("latency_ms.samples", 0) < 1000
                    if n not in table and not short:
                        problems.append(f"{where}: table lacks {n}")
                if table.get("fail_frac") != 0:
                    problems.append(f"{where}: fail_frac is {table.get('fail_frac')}")
        print(f"self-check: {name} done", file=sys.stderr)
    for p in problems:
        print(f"self-check: {p}", file=sys.stderr)
    if problems:
        sys.exit(1)
    print("self-check ok")


def main():
    args = sys.argv[1:]
    if args == ["--self-check"]:
        self_check(build())
        return
    if not args or args[0] not in ("--workload", "--seed", "--seconds", "--trace"):
        fail(__doc__.strip())
    binary = build()
    sys.exit(run(binary, args).returncode)


if __name__ == "__main__":
    main()
