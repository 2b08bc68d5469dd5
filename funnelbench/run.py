#!/usr/bin/env python3
"""Build and run the FUNNEL benchmark (README.md in this directory).

    python3 funnelbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 funnelbench/run.py --self-test

Run from the repository root. The first call configures and builds the
benchmark and the repository's src/ libraries into $CARGO_TARGET_DIR (or
.bench_build); later calls only check the build is current. Everything the
run writes stays under that directory.
"""
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"


def fail(message, code=2):
    print("funnelbench: " + message, file=sys.stderr)
    sys.exit(code)


def source_digest():
    """Commit of the measured sources: git when available, else a digest."""
    try:
        sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if sha.returncode == 0:
            return sha.stdout.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for top in ("src", "funnelbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "src-" + h.hexdigest()[:16]


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no FUNNEL sources next to the benchmark (expected src/ under "
             + ROOT + ")")
    build_dir = os.path.join(ROOT, BUILD)
    log = sys.stderr
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                       stdout=log, stderr=log, check=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    subprocess.run(["cmake", "--build", build_dir, "--target", "funnelbench",
                    "-j", jobs], stdout=log, stderr=log, check=True)
    return os.path.join(build_dir, "funnelbench")


def run(binary, argv):
    env = dict(os.environ, FUNNELBENCH_GIT_SHA=source_digest())
    work = os.path.join(ROOT, BUILD, "work")
    proc = subprocess.run([binary, *argv, "--work-dir", work], env=env,
                          cwd=ROOT)
    return proc.returncode


# The designed split of work (README.md, per-layer table): per workload, the
# layers whose self cost must be above 0, the ones that must read 0, the
# timings whose sample count must be above 0, and the largest layer.
LAYERS = ("obs.http", "service", "tsdb", "tsdb.persist", "funnel", "detect",
          "did", "obs.journal", "common.pool")
SPLIT = {
    "ingest_durable": {
        "busy": ("obs.http", "service", "tsdb", "tsdb.persist"),
        "counted": ("obs.http.round_trip_us_p50", "obs.http.server_us_p50",
                    "service.ingest_ms_p50", "tsdb.persist.commit_us_p50",
                    "tsdb.persist.checkpoint_ms_p50"),
        "largest": None,
    },
    "online_day": {
        "busy": ("obs.http", "service", "tsdb", "funnel", "detect", "did",
                 "obs.journal"),
        "counted": ("obs.http.round_trip_us_p50", "obs.http.server_us_p50",
                    "service.register_ms_p50", "service.verdict_ms_p50",
                    "service.ingest_ms_p50", "tsdb.dispatch_lag_us_p50",
                    "funnel.watch_ms_p50", "funnel.impact_set_us_p50",
                    "funnel.sample_us_p50",
                    "funnel.verdict_delay_min_p50", "did.determine_us_p50",
                    "obs.journal.append_us_p50"),
        "largest": "detect",
    },
    "batch_review": {
        "busy": ("tsdb", "funnel", "detect", "did", "common.pool"),
        "counted": ("tsdb.query_us_p50", "funnel.assess_ms_p50",
                    "funnel.impact_set_us_p50", "did.determine_us_p50",
                    "common.pool.queue_wait_us_p50"),
        "largest": "detect",
    },
}


def check_split(workload, got):
    """Failures of the traced metrics `got` against the designed split."""
    split = SPLIT[workload]
    cost = {l: got.get("layer.%s.us_per_op" % l, {}).get("value", 0)
            for l in LAYERS}
    failures = []
    for layer in LAYERS:
        busy = layer in split["busy"]
        if busy != (cost[layer] > 0):
            failures.append("%s: layer %s reads %g, designed %s" % (
                workload, layer, cost[layer], "busy" if busy else "bypassed"))
    for timing in split["counted"]:
        if got.get(timing + "_n", {}).get("value", 0) <= 0:
            failures.append("%s: %s has no samples" % (workload, timing))
    largest = max(LAYERS, key=lambda l: cost[l])
    if split["largest"] is not None and largest != split["largest"]:
        failures.append("%s: largest layer is %s, designed %s" % (
            workload, largest, split["largest"]))
    return failures


def self_test(binary):
    """Quick size of every workload: metric names and units, the designed
    split of work in the traced run, the generator's shape, and report bytes
    that repeat across runs of one seed."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    failures = []
    env = dict(os.environ, FUNNELBENCH_GIT_SHA=source_digest())
    work = os.path.join(ROOT, BUILD, "work")
    for w in spec["workloads"]:
        hashes = []
        for trace, names in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            for attempt in range(2 if trace == 0 else 1):
                proc = subprocess.run(
                    [binary, "--workload", w["name"], "--seed", "7",
                     "--seconds", "1", "--trace", str(trace), "--quick",
                     "--work-dir", work],
                    env=env, cwd=ROOT, capture_output=True, text=True,
                    timeout=600)
                lines = proc.stdout.strip().splitlines()
                if proc.returncode != 0 or not lines:
                    failures.append("%s trace=%d: exit %d\n%s" % (
                        w["name"], trace, proc.returncode, proc.stderr[-2000:]))
                    continue
                result = json.loads(lines[-1])
                got = result["metrics"]
                for m in names:
                    if m["name"] not in got:
                        failures.append("%s trace=%d: missing %s" % (
                            w["name"], trace, m["name"]))
                    elif got[m["name"]]["unit"] != m["unit"]:
                        failures.append("%s trace=%d: %s unit %s != %s" % (
                            w["name"], trace, m["name"],
                            got[m["name"]]["unit"], m["unit"]))
                extra = set(got) - {m["name"] for m in names}
                if extra:
                    failures.append("%s trace=%d: undeclared %s" % (
                        w["name"], trace, sorted(extra)))
                if trace == 1:
                    failures.extend(check_split(w["name"], got))
                if trace == 0:
                    for m in spec["end_to_end"]:
                        if got.get(m["name"], {}).get("value", 0) == 0:
                            failures.append("%s: %s is 0" % (w["name"],
                                                             m["name"]))
                    hashes.extend(l for l in proc.stderr.splitlines()
                                  if "report hash" in l)
                shape = [l.split()[2:] for l in proc.stderr.splitlines()
                         if l.startswith("# generator ")]
                if not shape or int(shape[0][0].split("=")[1]) > 1 or \
                        int(shape[0][1].split("=")[1]) > 1:
                    failures.append("%s trace=%d: generator shape %s, want "
                                    "one client thread and one connection"
                                    % (w["name"], trace, shape))
        digests = {h.split("report hash")[1].split()[0] for h in hashes}
        if len(digests) > 1:
            failures.append("%s: report hash differs across runs of one seed: "
                            "%s" % (w["name"], sorted(digests)))
        print("self-test %s: %s" % (w["name"], "ok" if not failures else
                                    "FAILED"), file=sys.stderr)
    for f in failures:
        print("  " + f, file=sys.stderr)
    return 1 if failures else 0


def main():
    argv = sys.argv[1:]
    binary = build()
    if argv == ["--self-test"]:
        sys.exit(self_test(binary))
    sys.exit(run(binary, argv))


if __name__ == "__main__":
    main()
