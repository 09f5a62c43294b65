#!/usr/bin/env python3
"""Run one MaskSearch benchmark workload.

    python3 msbench/run.py --workload <paper-q1q5|adhoc-cpu|msii-ingest> \
        --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The first call builds the benchmark (an sbt
project in this directory that compiles the repository's main sources with
its own) and generates the two lite datasets under `.bench_build/msbench`;
later calls reuse both until a source file changes. The last line of
standard output is the JSON result; the exit code is non-zero when the build
fails, a query fails or an answer is wrong.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "msbench")
CLASSPATH = os.path.join(BUILD, "classpath.txt")
EXPECTED = os.path.join(BUILD, "expected")
PREPARED = os.path.join(BUILD, "prepared")
WORKLOADS = ("paper-q1q5", "adhoc-cpu", "msii-ingest")
BUILD_TIMEOUT_S = 700
RUN_TIMEOUT_S = 170

# Module openings Spark needs on JDK 17 (what spark-submit adds).
JAVA_OPENS = [
    "--add-opens=java.base/" + p + "=ALL-UNNAMED"
    for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io",
        "java.net", "java.nio", "java.util", "java.util.concurrent",
        "java.util.concurrent.atomic", "jdk.internal.ref", "sun.nio.ch",
        "sun.nio.cs", "sun.security.action", "sun.util.calendar",
    )
]


def log(msg):
    print("[msbench] " + msg, file=sys.stderr, flush=True)


def newest_source_mtime():
    newest = 0.0
    roots = [os.path.join(HERE, "src", "main"), os.path.join(ROOT, "src", "main")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for r in roots:
        for d, _, names in os.walk(r):
            files.extend(os.path.join(d, n) for n in names)
    for f in files:
        newest = max(newest, os.path.getmtime(f))
    return newest


def heap():
    """A fixed 3 GiB driver heap, or a third of RAM on smaller machines."""
    try:
        with open("/proc/meminfo") as f:
            kib = next(int(l.split()[1]) for l in f if l.startswith("MemTotal:"))
    except (OSError, StopIteration, ValueError):
        return "3g"
    mib = kib // 1024
    return "3g" if mib >= 8192 else "%dm" % max(1024, mib // 3)


def build_env():
    """The build finds Spark's jars through SPARK_HOME; derive it from
    `spark-submit` on PATH when it is not set."""
    env = dict(os.environ)
    if not env.get("SPARK_HOME") and shutil.which("spark-submit"):
        env["SPARK_HOME"] = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    return env


def run_checked(cmd, cwd, timeout, capture=False, env=None):
    """Run a child to completion (killing it on timeout); stdout is captured
    or sent to stderr so only the benchmark's result reaches stdout."""
    proc = subprocess.Popen(cmd, cwd=cwd, stdout=subprocess.PIPE if capture else sys.stderr,
                            stderr=sys.stderr, text=True, env=env)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("timed out after %d s: %s" % (timeout, " ".join(cmd[:3])))
        return 124, ""
    return proc.returncode, out or ""


def java_cmd(classpath, args):
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    return (["java", "-Xmx" + heap(), "-XX:+UseParallelGC", "-XX:+IgnoreUnrecognizedVMOptions",
             "-Djava.io.tmpdir=" + tmp, "-Dio.netty.tryReflectionSetAccessible=true"]
            + JAVA_OPENS + ["-cp", classpath, "repro.msbench.Main"] + args)


def build():
    """Compile and export the runtime classpath when any source is newer than
    the last build (dropping expected answers cached by the old build);
    generate the datasets once."""
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.exists(CLASSPATH) or os.path.getmtime(CLASSPATH) < newest_source_mtime():
        log("building")
        shutil.rmtree(EXPECTED, ignore_errors=True)
        code, out = run_checked(
            ["sbt", "--batch", "-Dsbt.log.noformat=true", "compile", "export Runtime/fullClasspath"],
            HERE, BUILD_TIMEOUT_S, capture=True, env=build_env())
        lines = [l for l in out.splitlines() if l.strip() and not l.startswith("[")]
        if code != 0 or not lines:
            sys.stderr.write(out[-4000:])
            log("build failed")
            return False
        with open(CLASSPATH, "w") as f:
            f.write(lines[-1].strip())
    if not os.path.exists(PREPARED):
        log("generating datasets")
        with open(CLASSPATH) as f:
            cp = f.read().strip()
        code, _ = run_checked(java_cmd(cp, ["--prepare"]), ROOT, BUILD_TIMEOUT_S)
        if code != 0:
            log("dataset generation failed")
            return False
        open(PREPARED, "w").close()
    return True


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = p.parse_args()

    if not os.path.isdir(os.path.join(ROOT, "src", "main", "scala", "repro")):
        log("no MaskSearch sources at %s/src/main/scala; run from a repository checkout" % ROOT)
        return 2
    if not build():
        return 3
    with open(CLASSPATH) as f:
        cp = f.read().strip()
    args = ["--workload", a.workload, "--seed", str(a.seed), "--seconds", str(a.seconds), "--trace", str(a.trace)]
    code, out = run_checked(java_cmd(cp, args), ROOT, RUN_TIMEOUT_S, capture=True)
    sys.stdout.write(out)
    sys.stdout.flush()
    return code


if __name__ == "__main__":
    sys.exit(main())
