#!/usr/bin/env python3
"""Run one workload of the QbS benchmark and print its result.

Usage (from the repository root):
    python3 qbsbench/run.py --workload hub-query --seed 1 --seconds 20 --trace 0

Builds the program first if needed (see build.py), then runs the harness in one
JVM with the pinned Spark settings. Every line the harness prints goes to
stdout; the last line is the JSON result. Exits non-zero, without a result,
if the build or the run fails or the run exceeds its time limit.
"""
import argparse
import json
import os
import signal
import subprocess
import sys

sys.dont_write_bytecode = True  # keep the checkout free of __pycache__
import build  # noqa: E402

HERE = build.HERE
ROOT = build.ROOT
WORK = os.path.join(ROOT, ".bench_build")
TIME_LIMIT_S = 170
HEAP = "2g"

# Spark's JavaModuleOptions: Kryo and Spark reflect into these JDK packages.
OPENS = ["java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
         "java.base/java.io", "java.base/java.net", "java.base/java.nio", "java.base/java.util",
         "java.base/java.util.concurrent", "java.base/java.util.concurrent.atomic",
         "java.base/jdk.internal.ref", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
         "java.base/sun.security.action", "java.base/sun.util.calendar"]


def commit():
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        return subprocess.run(["git", "-C", ROOT, "rev-parse", "--short", "HEAD"], env=env,
                              capture_output=True, text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def cpu_times():
    """Aggregate CPU jiffies from /proc/stat (Linux), or None elsewhere."""
    try:
        with open("/proc/stat") as fh:
            return [int(x) for x in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None


def steal_share(before, after):
    """Share of CPU time the hypervisor took from this machine between two samples."""
    if not before or not after or len(after) < 8:
        return None
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / max(sum(delta), 1)


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = p.parse_args()

    try:
        classes = build.build()
    except (RuntimeError, OSError, subprocess.CalledProcessError) as e:
        print(f"qbsbench: build failed: {e}", file=sys.stderr)
        return 2

    tmp = os.path.join(WORK, "tmp")
    os.makedirs(tmp, exist_ok=True)
    cmd = [build.java(), f"-Xmx{HEAP}", "-Xss16m",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.callstack.depth=200",
           f"-Dspark.local.dir={tmp}", f"-Djava.io.tmpdir={tmp}",
           f"-Dlog4j2.configurationFile={os.path.join(HERE, 'log4j2.properties')}",
           "-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true",
           f"-Dqbsbench.commit={commit()}"]
    cmd += [f"--add-opens={o}=ALL-UNNAMED" for o in OPENS]
    cmd += ["-cp", os.pathsep.join([classes, os.path.join(build.spark_jars(), "*")]),
            "qbsbench.Main", "--workload", a.workload, "--seed", str(a.seed),
            "--seconds", str(a.seconds), "--trace", str(a.trace)]

    cpu0 = cpu_times()
    env = dict(os.environ, SPARK_LOCAL_DIRS=tmp)
    proc = subprocess.Popen(cmd, cwd=WORK, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=TIME_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        print(f"qbsbench: run exceeded {TIME_LIMIT_S} s", file=sys.stderr)
        return 3
    steal = steal_share(cpu0, cpu_times())
    lines = out.rstrip("\n").split("\n")
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    print("\n".join(lines[:-1] if result is not None else lines))
    if steal is not None:
        # Steal shows when load from other machines on the host, not this program,
        # slowed a run.
        print(f"# cpu steal during run: {steal:.1%}")
    if result is None:
        print(f"qbsbench: run failed (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 4
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
