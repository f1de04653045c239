#!/usr/bin/env python3
"""Benchmark entry point.

    python3 perfbench/run.py --workload q18-operator --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --self-test

Run from the root of a checkout. The first run compiles the program's sources
(src/main/scala) together with the benchmark code in perfbench/src using the sbt build
in perfbench/, and caches the classes and the classpath in .bench_build/; later
runs launch the JVM directly. The last line of standard output is the result
as one JSON object; a run that fails prints no result and exits non-zero.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, ".bench_build")
WORKLOADS = ["q18-operator", "fig15-plan", "modis-pipeline"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

JVM_OPTS = [
    "-Xms3g",
    "-Xmx3g",
    "-XX:+IgnoreUnrecognizedVMOptions",
    "-Djdk.reflect.useDirectMethodHandle=false",
    "-Dio.netty.tryReflectionSetAccessible=true",
] + [
    "--add-opens=java.base/%s=ALL-UNNAMED" % p
    for p in [
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
        "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
        "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
        "sun.util.calendar",
    ]
]

# Exact counts that must be identical across runs at one seed.
EXACT = ["sim_speedup", "dest_tuples", "catalyst.num_phases", "catalyst.tuples_moved",
         "catalyst.output_rows", "catalyst.jobs", "core.planner.phases", "core.planner.transfers"]


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def sources():
    dirs = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for d in dirs:
        if not os.path.isdir(d):
            fail("missing %s: run from the root of a full checkout" % os.path.relpath(d, ROOT))
        for base, _, names in os.walk(d):
            files += [os.path.join(base, n) for n in names]
    digest = hashlib.sha256()
    for f in sorted(files):
        digest.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            digest.update(fh.read())
    return digest.hexdigest()


def run_child(cmd, timeout, env=None, cwd=None, quiet=False):
    """Runs cmd in its own process group, forwarding its output, and kills
    the whole group when `timeout` seconds have passed, whether or not it
    still prints. Returns (exit code, result line or None)."""
    proc = subprocess.Popen(cmd, cwd=cwd, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    result = []

    def pump():
        for line in proc.stdout:
            if line.startswith('{"correct"'):
                result.append(line.strip())
            elif not quiet:
                sys.stdout.write(line)
                sys.stdout.flush()

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    try:
        proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        print("perfbench: %s timed out after %d s" % (cmd[0], timeout), file=sys.stderr)
        return 124, None
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        reader.join(timeout=5)
    return proc.returncode, (result[-1] if result else None)


def spark_home():
    """The Spark distribution whose jars the program compiles and runs with."""
    homes = [os.environ.get("SPARK_HOME")] + [
        os.path.dirname(os.path.realpath(d)) for d in os.environ.get("PATH", "").split(os.pathsep)
        if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in homes:
        if home and os.path.isdir(os.path.join(home, "jars")):
            return home
    fail("no Spark distribution found: set SPARK_HOME")


def build():
    """Compiles once per source digest; returns (classpath, digest, built)."""
    digest = sources()
    stamp = os.path.join(OUT, "stamp")
    cp_file = os.path.join(OUT, "classpath.txt")
    if os.path.exists(stamp) and os.path.exists(cp_file) and open(stamp).read() == digest:
        return open(cp_file).read().strip(), digest, False
    os.makedirs(OUT, exist_ok=True)
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    env.setdefault("SBT_OPTS", "-Dsbt.offline=true -Xmx2g")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "-Dperfbench.sparkHome=" + spark_home(), "-Dperfbench.out=" + OUT, "writeClasspath"]
    print("perfbench: building (%s)" % " ".join(cmd), file=sys.stderr)
    code, _ = run_child(cmd, BUILD_TIMEOUT_S, env=env, cwd=HERE, quiet=True)
    if code != 0 or not os.path.exists(cp_file):
        fail("build failed (exit %d)" % code)
    with open(stamp, "w") as fh:
        fh.write(digest)
    return open(cp_file).read().strip(), digest, True


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    return ({m["name"]: m["unit"] for m in bench["end_to_end"]},
            {m["name"]: m["unit"] for m in bench["per_layer"]})


def finish(line, trace):
    """Checks the JVM's result line against BENCHMARK.json and attaches the
    units there. Returns (result, problems)."""
    try:
        r = json.loads(line)
    except (TypeError, ValueError):
        return None, ["no result line"]
    problems = []
    if sorted(r) != ["attempted", "correct", "failed", "metrics"]:
        problems.append("result keys %s" % sorted(r))
    want = spec()[1 if trace else 0]
    got = r.get("metrics", {})
    if sorted(got) != sorted(want):
        problems.append("metrics %s, expected %s" % (sorted(got), sorted(want)))
    if not all(isinstance(v, (int, float)) for v in got.values()):
        problems.append("a metric has no numeric value")
    if not isinstance(r.get("attempted"), int) or r["attempted"] < 1:
        problems.append("attempted must be a whole number >= 1")
    if problems:
        return None, problems
    r["metrics"] = {k: {"value": v, "unit": want[k]} for k, v in sorted(got.items())}
    return r, []


def run_jvm(classpath, digest, args, timeout):
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    java = os.path.join(os.environ["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in os.environ else "java"
    cmd = [java] + JVM_OPTS + [
        "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
        "-Djava.io.tmpdir=" + tmp,
        "-Dperfbench.work=" + OUT,
        "-Dperfbench.source=" + digest[:12],
        "-cp", classpath, "perfbench.Main",
    ] + args
    # Spark's scratch space stays inside the checkout (spark.local.dir).
    env = {k: v for k, v in os.environ.items() if k not in ("SPARK_LOCAL_DIRS", "LOCAL_DIRS")}
    return run_child(cmd, timeout, env=env, cwd=ROOT)


def self_test(classpath, digest):
    """Toy sizes on a second seed: every metric printed with its unit, no
    failed operation, and exact counts repeating across two runs."""
    problems = []
    for w in WORKLOADS:
        for trace in (0, 1):
            seen = []
            for _ in range(2):
                args = ["--workload", w, "--seed", "7", "--seconds", "2", "--trace", str(trace), "--toy"]
                code, result = run_jvm(classpath, digest, args, RUN_TIMEOUT_S)
                if code != 0:
                    problems.append("%s trace=%d exited %d" % (w, trace, code))
                    break
                r, bad = finish(result, trace)
                if r and r["failed"] != 0:
                    bad.append("failed %d of %d" % (r["failed"], r["attempted"]))
                problems += ["%s trace=%d: %s" % (w, trace, b) for b in bad]
                if r:
                    seen.append({k: v["value"] for k, v in r["metrics"].items() if k in EXACT})
            if len(seen) == 2 and seen[0] != seen[1]:
                problems.append("%s trace=%d: exact counts differ: %s vs %s" % (w, trace, seen[0], seen[1]))
    for p in problems:
        print("SELF-TEST FAILED: " + p)
    print("self-test %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--toy", action="store_true", help="self-test sizes")
    ap.add_argument("--unpermuted", action="store_true", help="keep MODIS fragment ids as generated")
    ap.add_argument("--self-test", action="store_true")
    a = ap.parse_args()
    if not a.self_test and not a.workload:
        fail("--workload is required")
    if not os.path.exists(os.path.join(ROOT, "BENCHMARK.json")):
        fail("BENCHMARK.json not found at the checkout root")

    started = time.monotonic()
    classpath, digest, built = build()
    if a.self_test:
        return self_test(classpath, digest)
    # A run that had to build gets the full run budget after the build.
    timeout = RUN_TIMEOUT_S if built else RUN_TIMEOUT_S - (time.monotonic() - started)
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds),
            "--trace", str(a.trace)] + (["--toy"] if a.toy else []) + (["--unpermuted"] if a.unpermuted else [])
    code, result = run_jvm(classpath, digest, args, timeout)
    if code != 0:
        fail("benchmark JVM exited %d" % code)
    r, problems = finish(result, a.trace)
    if problems:
        fail("invalid result: " + "; ".join(problems))
    print(json.dumps(r))
    return 0


if __name__ == "__main__":
    sys.exit(main())
