#!/usr/bin/env python3
"""Build and run the Fries reconfiguration benchmark.

Run from the root of a checkout:

    python3 fbench/run.py --workload w2_backlog --seed 1 --seconds 34 --trace 0
    python3 fbench/run.py --selftest

The first call compiles the program (src/main/scala) together with the
benchmark (fbench/src), using the Scala compiler that ships with Spark
($SPARK_HOME/jars, else the jars bundled with pyspark). The classes go into
$CARGO_TARGET_DIR (default .bench_build) and are reused while the sources are
unchanged. The last line of stdout is the JSON result. --selftest runs the
negative control of the consistency gate instead.
"""
import argparse
import glob
import hashlib
import importlib.util
import json
import os
import shutil
import subprocess
import sys

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("w2_backlog", "w1_stream")
TIMEOUT_S = 170
JVM_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in ("java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
              "java.nio", "java.util", "java.util.concurrent",
              "java.util.concurrent.atomic", "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs",
              "sun.security.action", "sun.util.calendar")
]


def die(msg, code=2):
    print("fbench: " + msg, file=sys.stderr)
    sys.exit(code)


def spark_jars():
    """$SPARK_HOME/jars, else the jars bundled with the pyspark package."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        spec = importlib.util.find_spec("pyspark")
        home = os.path.dirname(spec.origin) if spec else ""
    jars = os.path.join(home, "jars")
    if not home or not os.path.isdir(jars):
        die("Spark jars not found; set SPARK_HOME")
    return jars


def sources(root):
    program = sorted(glob.glob(os.path.join(root, "src", "main", "scala", "**", "*.scala"),
                               recursive=True))
    bench = sorted(glob.glob(os.path.join(BENCH, "src", "**", "*.scala"), recursive=True))
    if not program:
        die("no program sources under src/main/scala; run from the root of a checkout")
    return program + bench


def build(root, out, jars):
    srcs = sources(root)
    h = hashlib.sha256()
    for f in srcs:
        h.update(os.path.relpath(f, root).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    classes = os.path.join(out, "classes-" + h.hexdigest()[:16])
    if os.path.exists(os.path.join(classes, ".done")):
        return classes
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    compiler = [glob.glob(os.path.join(jars, "scala-" + n + "-2.*.jar")) for n in
                ("compiler", "library", "reflect")]
    if not all(compiler):
        die("Scala compiler jars not found in " + jars)
    cmd = ["java", "-Xss8m", "-Xmx1g", "-cp", ":".join(c[0] for c in compiler),
           "scala.tools.nsc.Main", "-nowarn", "-usejavacp", "-d", tmp,
           "-classpath", os.path.join(jars, "*")] + srcs
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
                       timeout=600)
    if r.returncode != 0:
        sys.stderr.write(r.stdout[-8000:])
        die("compilation failed", 3)
    open(os.path.join(tmp, ".done"), "w").close()
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(tmp, classes)
    return classes


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and a.workload is None:
        die("--workload is required")

    root = os.getcwd()
    out = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    jars = spark_jars()
    classes = build(root, out, jars)
    tmp = os.path.join(out, "tmp")
    os.makedirs(tmp, exist_ok=True)
    jvm = ["java", "-Xms2g", "-Xmx2g", "-XX:+UseTransparentHugePages", "-XX:+AlwaysPreTouch", "-Djava.io.tmpdir=" + tmp] + JVM_OPENS + [
        "-cp", classes + ":" + os.path.join(jars, "*")]

    if a.selftest:
        sys.exit(subprocess.run(jvm + ["fbench.SelfTest"], timeout=TIMEOUT_S).returncode)

    tag = "%s-seed%d-s%d" % (a.workload, a.seed, a.seconds)
    logs = os.path.join(out, "logs")
    os.makedirs(logs, exist_ok=True)
    log = os.path.join(logs, "%s-trace%d.log" % (tag, a.trace))
    cmd = jvm + ["fbench.Main", "--workload", a.workload, "--seed", str(a.seed),
                 "--seconds", str(a.seconds), "--trace", str(a.trace), "--out", out]
    with open(log, "w") as err:
        try:
            r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=err, text=True,
                               timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            die("run exceeded %d s; log in %s" % (TIMEOUT_S, log), 4)
    lines = r.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = None
    if r.returncode != 0 or not isinstance(result, dict):
        sys.stdout.write(r.stdout)
        with open(log) as fh:
            sys.stderr.write(fh.read()[-4000:])
        die("run failed (exit %d); log in %s" % (r.returncode, log), r.returncode or 1)

    results = os.path.join(out, "results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, "%s-trace%d.json" % (tag, a.trace)), "w") as fh:
        fh.write(lines[-1] + "\n")
    print("\n".join(lines[:-1]))
    untraced = os.path.join(results, tag + "-trace0.json")
    if a.trace == 1 and os.path.exists(untraced):
        with open(untraced) as fh:
            base = json.load(fh)["metrics"]
        print("tracing overhead (traced - untraced, same workload, seed and seconds):")
        for k, m in sorted(base.items()):
            t = result["metrics"].get("traced." + k)
            if t and m["value"]:
                print("  %-28s %14.4f -> %14.4f %-9s %+7.2f%%" % (
                    k, m["value"], t["value"], m["unit"],
                    100.0 * (t["value"] - m["value"]) / m["value"]))
    print(lines[-1])


if __name__ == "__main__":
    main()
