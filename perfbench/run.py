#!/usr/bin/env python3
"""End-to-end benchmark of the omegaplus_scan CLI, with per-layer attribution.

    python3 perfbench/run.py --workload dense_t1 --seed 1 --seconds 20 --trace 0

Run from the repository root. The first call builds the repository and the
probe into .bench_build/perfbench. Each seed's ms input and its reference
report are made once and cached under .perfbench/inputs, outside every timed
region.

--trace 0 runs the CLI with default flags repeatedly for --seconds, with
tracing off. Every run is checked: exit code, the default-path guard in its
--metrics-json, and its report against the reference. The end-to-end metrics
are medians over the runs.

--trace 1 repeats the probe's traced run for --seconds and reports the
per-layer metrics as medians.

The last line of stdout is the result:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
The full record, with the host stamp and every sample, goes to
.perfbench/results/. Workload definitions live in workloads.py; README.md
explains the metrics.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # keep the checkout free of __pycache__

from workloads import WORKLOADS  # noqa: E402

BUILD_DIR = ROOT / ".bench_build" / "perfbench"
STATE_DIR = ROOT / ".perfbench"
BUILD_TIMEOUT_S = 850
CHILD_TIMEOUT_S = 150
MIN_SAMPLES = 3
CACHED_SEEDS = 4

class BenchError(Exception):
    """A failure that leaves nothing to measure; no result is printed."""


def log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def declared_metrics():
    """The end-to-end and per-layer metric units, by name, from BENCHMARK.json."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
                {m["name"]: m["unit"] for m in spec["per_layer"]})
    except (OSError, ValueError, KeyError, TypeError) as error:
        raise BenchError(f"cannot read the metrics of BENCHMARK.json: {error!r}") from None


# --------------------------------------------------------------------------
# Build
# --------------------------------------------------------------------------


def require_sources():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise BenchError(f"no libomega sources next to {HERE.name}/ (expected "
                         "CMakeLists.txt and src/ at the checkout root)")


def build():
    """Builds omegaplus_scan and the probe; returns their paths."""
    cache = BUILD_DIR / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}" not in cache.read_text():
        # A build tree configured for another checkout location.
        subprocess.run(["cmake", "-E", "rm", "-rf", str(BUILD_DIR)], check=True)
    # Compilers and every child keep their temporary files in the checkout.
    (BUILD_DIR / "tmp").mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(BUILD_DIR / "tmp")
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "-j", str(os.cpu_count() or 1),
                  "--target", "omegaplus_scan", "perfbench_probe"])
    log_path = BUILD_DIR / "build.log"
    with open(log_path, "w") as out:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=out, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                raise BenchError(f"build timed out: {' '.join(step)}") from None
            if done.returncode != 0:
                out.flush()
                tail = log_path.read_text().splitlines()[-20:]
                raise BenchError("build failed:\n" + "\n".join(tail))
    targets = {}
    for line in (BUILD_DIR / "targets.txt").read_text().splitlines():
        key, _, value = line.partition("=")
        targets[key] = Path(value)
    return targets["omegaplus_scan"], targets["perfbench_probe"]


# --------------------------------------------------------------------------
# Child processes
# --------------------------------------------------------------------------


def run_child(cmd, stdout_path, stderr_path, timeout=CHILD_TIMEOUT_S):
    """Runs cmd to completion; returns (exit code, wall seconds, rusage).

    Wall time runs from just before the fork to the reap; rusage comes from
    wait4, so it covers exactly this child.
    """
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([str(c) for c in cmd], stdout=out, stderr=err, cwd=ROOT)
        killer = threading.Timer(timeout, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage


def probe_json(probe, args, work, name):
    """Runs the probe; returns (exit code, parsed stdout or None)."""
    out, err = work / f"{name}.out", work / f"{name}.err"
    code, _, _ = run_child([probe, *args], out, err)
    try:
        return code, json.loads(out.read_text().strip().splitlines()[-1])
    except (ValueError, IndexError):
        log(f"probe {name} printed no JSON (exit {code}): "
            + err.read_text(errors="replace")[-500:])
        return code, None


# --------------------------------------------------------------------------
# Host stamp and inputs
# --------------------------------------------------------------------------


def git_sha():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unavailable (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unavailable"


def source_digest():
    """sha256 over the program's and the probe's sources: identifies the
    code under test where the checkout carries no git metadata, and keys the
    reference the probe makes with it."""
    digest = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"]
    for top in ("src", "examples", HERE.name):
        files += [p for p in (ROOT / top).rglob("*") if p.is_file()]
    for path in sorted(files):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_stamp(probe, work):
    code, host = probe_json(probe, ["--mode", "host"], work, "host")
    if code != 0 or host is None:
        raise BenchError("probe --mode host failed")
    host["git_sha"] = git_sha()
    host["source_sha256"] = source_digest()
    return host


def prepare_inputs(workload, seed, probe, source_sha256):
    """The seed's ms file, cached per seed, and the reference report and
    spot checks, cached per seed and per source tree: they are made by the
    build under test."""
    spec = workload.input
    tag = hashlib.sha256(repr(spec).encode()).hexdigest()[:8]
    directory = STATE_DIR / "inputs" / f"{spec.name}-{tag}-seed{seed}"
    directory.mkdir(parents=True, exist_ok=True)
    os.utime(directory)
    # Keep the most recently used seeds only: a streamed input is ~22 MB.
    siblings = sorted(directory.parent.glob(f"{spec.name}-{tag}-seed*"),
                      key=lambda p: p.stat().st_mtime, reverse=True)
    for stale in siblings[CACHED_SEEDS:]:
        shutil.rmtree(stale)
    ms = directory / "input.ms"
    if not ms.exists():
        code, _ = probe_json(probe, [
            "--mode", "gen", "--samples", spec.samples, "--snps", spec.snps,
            "--length", spec.length_bp, "--rho", spec.rho, "--seed", seed,
            "--out", ms], directory, "gen")
        if code != 0 or not ms.exists():
            raise BenchError(f"input generation failed for {spec.name} seed {seed}")
    source = f"-src{source_sha256[:16]}"
    for stale in directory.glob("golden-*"):
        if source not in stale.name:  # made by another source tree
            stale.unlink()
    key = (f"g{workload.grid}-w{workload.maxwin}-m{workload.minwin}"
           f"-k{workload.spot_checks}{source}")
    report = directory / f"golden-{key}.report"
    summary_path = directory / f"golden-{key}.json"
    if not summary_path.exists():
        code, summary = probe_json(probe, [
            "--mode", "golden", "--input", ms, *shape_args(workload),
            "--spot-checks", workload.spot_checks, "--seed", seed,
            "--out", report], directory, f"golden-{key}")
        if summary is None or not report.exists():
            raise BenchError(f"reference scan failed for {workload.name} seed {seed}")
        summary["exit_code"] = code
        summary_path.write_text(json.dumps(summary))
    return ms, report.read_bytes(), json.loads(summary_path.read_text())


def shape_args(workload):
    return ["--length", workload.input.length_bp, "--grid", workload.grid,
            "--maxwin", workload.maxwin, "--minwin", workload.minwin]


# --------------------------------------------------------------------------
# End-to-end runs (--trace 0)
# --------------------------------------------------------------------------


def cli_run(scan, workload, ms, work, golden, host):
    """One untraced CLI run; returns (sample or None, problems)."""
    for stale in work.glob("run*"):
        stale.unlink()
    metrics_path = work / "run.metrics.json"
    cmd = [scan, "--name", "run", "--input", ms, *shape_args(workload),
           "--threads", workload.threads, *workload.cli_flags,
           "--reports-dir", work, "--metrics-json", metrics_path]
    code, wall, usage = run_child(cmd, work / "run.stdout", work / "run.stderr")
    problems = []
    if code != 0:
        problems.append(f"exit code {code}")
    try:
        metrics = json.loads(metrics_path.read_text())
    except (OSError, ValueError):
        return None, problems + ["no --metrics-json document"]
    problems += default_path_problems(metrics, workload, host)
    report = work / "OmegaPlus_Report.run"
    if not report.exists() or report.read_bytes() != golden:
        problems.append("report differs from the reference")
    positions = metrics.get("counters", {}).get("positions_scanned", 0)
    scan_s = metrics.get("total_seconds", 0.0)
    if positions <= 0 or scan_s <= 0.0:
        problems.append("no positions scanned")
    if problems:
        return None, problems
    return {
        "positions_per_s": positions / scan_s,
        "wall_s": wall,
        "setup_s": wall - scan_s,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "scan_s": scan_s,
        "positions": positions,
        "redispatched_positions": metrics.get("hetero", {}).get("redispatched_positions", 0),
    }, []


def default_path_problems(metrics, workload, host):
    """The run must be the default engine and kernel this host supports."""
    problems = []
    ld = metrics.get("ld", {})
    kernel = metrics.get("kernel", {})
    if metrics.get("ld_backend") != "packed" or ld.get("engine") != "packed":
        problems.append(f"LD engine {metrics.get('ld_backend')!r} is not packed")
    if ld.get("isa") != host["packed_ld_isa"]:
        problems.append(f"packed LD ISA {ld.get('isa')!r}, host supports "
                        f"{host['packed_ld_isa']!r}")
    expected = "avx2" if host["omega_kernel_avx2"] else host["expected_kernel"]
    if kernel.get("selected") != expected:
        problems.append(f"omega kernel {kernel.get('selected')!r}, host "
                        f"supports {expected!r}")
    if metrics.get("runtime", {}).get("partial", False):
        problems.append("partial scan")
    expect = workload.expect
    if expect.get("min_chunks", 0) > metrics.get("stream", {}).get("chunks", 0):
        problems.append(f"stream read fewer than {expect['min_chunks']} chunks")
    if expect.get("checkpoint") and metrics.get("runtime", {}).get("checkpoints_written", 0) == 0:
        problems.append("no checkpoint written")
    if expect.get("hetero") and not metrics.get("hetero", {}).get("enabled", False):
        problems.append("hetero backend not enabled")
    return problems


def end_to_end(scan, workload, ms, golden, host, seconds, work):
    samples, attempted, failed, failures = [], 0, 0, []

    def attempt(keep):
        nonlocal attempted, failed
        attempted += 1
        sample, problems = cli_run(scan, workload, ms, work, golden, host)
        if problems:
            failed += 1
            failures.append(problems)
            log(f"{workload.name}: run {attempted} failed: {'; '.join(problems)}")
        elif keep:
            samples.append(sample)

    attempt(keep=False)  # warm-up: page cache, lazy set-up; checked, not timed
    start = time.monotonic()
    while time.monotonic() - start < seconds or attempted - 1 < MIN_SAMPLES:
        attempt(keep=True)
        if failed > attempted // 2 + 1:
            break
    return samples, attempted, failed, failures


# --------------------------------------------------------------------------
# Traced runs (--trace 1)
# --------------------------------------------------------------------------


def traced(probe, workload, ms, host, seconds, work, per_layer):
    samples, attempted, failed, failures, records = [], 0, 0, [], []
    llc = host.get("llc_bytes") or 0
    start = time.monotonic()
    while time.monotonic() - start < seconds or attempted < MIN_SAMPLES:
        untraced_first = attempted % 2 == 0
        code, doc = probe_json(probe, [
            "--mode", "trace", "--shape", workload.trace_shape, "--input", ms,
            *shape_args(workload), "--threads", workload.threads,
            "--work-dir", work,
            "--untraced-first", "true" if untraced_first else "false"],
            work, "trace")
        attempted += 1
        if code != 0 or doc is None or not doc.get("ok", False):
            failed += 1
            failures.append(doc.get("checks") if doc else f"exit code {code}")
            log(f"{workload.name}: traced run {attempted} failed: {failures[-1]}")
            if failed > attempted // 2 + 1:
                break
            continue
        metrics = doc["metrics"]
        metrics["dp.peak_bytes_per_llc"] = metrics["dp.peak_bytes"] / llc if llc else 0.0
        if set(metrics) != set(per_layer):
            raise BenchError("probe metrics differ from BENCHMARK.json per_layer: "
                             f"{sorted(set(metrics) ^ set(per_layer))}")
        share = metrics["unattributed_s"] / doc["traced_wall_s"]
        if workload.trace_shape == "serial" and share >= 0.05:
            log(f"{workload.name}: unattributed {share:.1%} of the traced wall")
        samples.append(metrics)
        records.append({k: doc[k] for k in ("checks", "traced_wall_s",
                                            "untraced_wall_s", "not_measured")})
    return samples, attempted, failed, failures, records


# --------------------------------------------------------------------------
# Main
# --------------------------------------------------------------------------


def summarize(samples, names):
    summary = {}
    for name in names:
        values = [s[name] for s in samples]
        quartiles = (statistics.quantiles(values, n=4, method="inclusive")
                     if len(values) > 1 else values * 3)
        summary[name] = {"median": statistics.median(values), "q1": quartiles[0],
                         "q3": quartiles[2], "min": min(values),
                         "max": max(values), "n": len(values)}
    return summary


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    workload = WORKLOADS[args.workload]

    end_to_end_units, per_layer_units = declared_metrics()
    require_sources()
    scan, probe = build()
    work = STATE_DIR / "work" / workload.name
    work.mkdir(parents=True, exist_ok=True)
    host = host_stamp(probe, work)
    ms, golden, golden_summary = prepare_inputs(workload, args.seed, probe,
                                                host["source_sha256"])
    golden_ok = golden_summary.get("ok", False) and golden_summary.get("exit_code") == 0
    if not golden_ok:
        log(f"{workload.name}: reference spot checks failed: {golden_summary}")

    record = {"workload": workload.name, "why": workload.why, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "host": host,
              "reference": golden_summary}
    if args.trace == 0:
        samples, attempted, failed, failures = end_to_end(
            scan, workload, ms, golden, host, args.seconds, work)
        if not samples:
            raise BenchError(f"{workload.name}: every run failed: {failures[:3]}")
        names = [n for n in end_to_end_units if n != "success_frac"]
        if set(names) - set(samples[0]):
            raise BenchError("BENCHMARK.json end_to_end names metrics run.py does "
                             f"not measure: {sorted(set(names) - set(samples[0]))}")
        summary = summarize(samples, names)
        values = {n: summary[n]["median"] for n in names}
        units = end_to_end_units
    else:
        samples, attempted, failed, failures, records = traced(
            probe, workload, ms, host, args.seconds, work, per_layer_units)
        if not samples:
            raise BenchError(f"{workload.name}: every traced run failed: {failures[:3]}")
        summary = summarize(samples, per_layer_units)
        values = {n: summary[n]["median"] for n in per_layer_units}
        units = per_layer_units
        record["traced_runs"] = records
    if not golden_ok:
        # The reference scan or its brute-force spot checks failed: one more
        # failed run.
        attempted += 1
        failed += 1
        failures.append(["reference spot checks failed"])
    if args.trace == 0:
        values["success_frac"] = (attempted - failed) / attempted
    record.update(attempted=attempted, failed=failed, failures=failures,
                  summary=summary, samples=samples)
    results = STATE_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload.name}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print("perfbench host " + json.dumps(host))
    print("perfbench samples " + json.dumps({n: s["n"] for n, s in summary.items()}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": values[n], "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as error:
        log(str(error))
        sys.exit(2)
