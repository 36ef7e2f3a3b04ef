#!/usr/bin/env python3
"""Build file of the QbS benchmark.

Compiles the program (``src/main/scala``) and the benchmark harness
(``qbsbench/src``) with the Scala compiler that ships in Spark's ``jars``
directory, into ``.bench_build/qbsbench`` under the repository root. A stamp of
every source file's path and content makes a later call a no-op until a source
changes.

Usage: python3 qbsbench/build.py
"""
import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SOURCE_DIRS = [os.path.join(ROOT, "src", "main", "scala"), os.path.join(HERE, "src")]
OUT = os.path.join(ROOT, ".bench_build", "qbsbench")


def spark_jars():
    """Spark's jars directory: $SPARK_HOME/jars, else next to spark-submit on PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home and shutil.which("spark-submit"):
        home = os.path.dirname(os.path.dirname(os.path.realpath(shutil.which("spark-submit"))))
    if not home:
        raise RuntimeError("set SPARK_HOME to a Spark 4 distribution")
    return os.path.join(home, "jars")


def java():
    home = os.environ.get("JAVA_HOME")
    return os.path.join(home, "bin", "java") if home else "java"


def sources():
    files = []
    for d in SOURCE_DIRS:
        for base, _, names in os.walk(d):
            files += [os.path.join(base, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def stamp(files):
    h = hashlib.sha256()
    h.update("\n".join(sorted(os.listdir(spark_jars()))).encode())
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Return the classes directory, compiling first if a source changed."""
    files = sources()
    if not any(f.startswith(SOURCE_DIRS[0]) for f in files):
        raise RuntimeError("no program sources under src/main/scala")
    want = stamp(files)
    classes = os.path.join(OUT, "classes")
    stamp_file = os.path.join(OUT, "stamp")
    if os.path.exists(stamp_file) and open(stamp_file).read() == want:
        return classes
    tmp = classes + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    cmd = [java(), "-Xss16m", "-Xmx2g", "-cp", os.path.join(spark_jars(), "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", tmp] + files
    print(f"qbsbench: compiling {len(files)} sources", file=sys.stderr)
    subprocess.run(cmd, check=True, stdout=sys.stderr)
    shutil.rmtree(classes, ignore_errors=True)
    os.rename(tmp, classes)
    with open(stamp_file, "w") as fh:
        fh.write(want)
    return classes


if __name__ == "__main__":
    print(build())
