#!/usr/bin/env python3
"""The repo benchmark: builds the simulator from this checkout, runs one
workload, checks its simulated outputs and prints its metrics.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-reference

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`. With --trace 0 the metrics
are the end-to-end metrics of BENCHMARK.json, with --trace 1 its per-layer
metrics. Workloads, metrics and the layer map are described in NOTES.md.
"""
import argparse
import hashlib
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCE = HERE / "reference.json"

WORKLOADS = ["fleet_sparse", "million_user_day", "overload_flood", "dense_host"]

# Reference digests are recorded for workload seeds 0..REFERENCE_SEEDS-1.
# A run measures a batch of BATCH[workload] workload seeds, so its figures
# average over several inputs: benchmark seed n selects the batch
# (n*B + j) % REFERENCE_SEEDS for j < B. Batches are larger only where reps
# are short, so every seed still gets enough reps for its fastest-chunk
# estimate (see batch_rate).
REFERENCE_SEEDS = 64
BATCH = {"fleet_sparse": 4, "million_user_day": 2, "overload_flood": 8,
         "dense_host": 1}


def declared_metrics():
    """BENCHMARK.json's metric lists: (end_to_end, per_layer) as name->unit."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


# --- arithmetic (covered by --self-test) -------------------------------------

def median(values):
    ordered = sorted(values)
    n = len(ordered)
    mid = n // 2
    return ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2


def us_per_sim_s(span_ns, sim_us):
    """Wall microseconds spent per simulated second."""
    return (span_ns / 1e3) / (sim_us / 1e6)


def sim_s_per_wall_s(sim_us, run_ns):
    return (sim_us / 1e6) / (run_ns / 1e9)


def merge_histograms(hists):
    """Sum per-bucket counts of [lower, upper, count] bucket lists."""
    merged = {}
    for hist in hists:
        for lower, upper, count in hist:
            key = (lower, upper)
            merged[key] = merged.get(key, 0) + count
    return [[lo, hi, n] for (lo, hi), n in sorted(merged.items())]


def hist_percentile(hist, p):
    """Nearest-rank percentile of a bucketed histogram, interpolated by rank
    inside the bucket that holds it (the last sample of a bucket reads the
    bucket's upper bound, which is what LatencyHistogram::percentile reports).
    """
    total = sum(count for _, _, count in hist)
    if total == 0:
        return 0.0
    rank = max(1, math.ceil(p / 100.0 * total))
    below = 0
    for lower, upper, count in hist:
        if below + count >= rank:
            return lower + (upper - lower) * (rank - below) / count
        below += count
    return float(hist[-1][1])


def nearest_rank(values, p):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(1, math.ceil(p / 100.0 * len(ordered))) - 1]


def router_failures(r):
    """Requests that failed: refused at any stage, lost in a teardown, or
    completed later than the tenant's latency target."""
    return (r["rejected"] + r["shed"] + r["dropped"] + r["unroutable"] +
            r["lost"] + r["late"])


def sim_metrics(outputs, sim_us):
    """The simulated end-to-end figures of one run's outputs. An operation
    is a generated request, or a JVM job on dense_host."""
    sim_s = sim_us / 1e6
    if "jobs" in outputs:
        jobs = outputs["jobs"]
        done = [j for j in jobs if j["completed"]]
        exec_ms = [(j["end_us"] - j["start_us"]) / 1e3 for j in done]
        failed = len(jobs) - len(done)  # OOM, killed, or past the deadline
        return {
            "operations": len(jobs),
            "failed": failed,
            "sim_goodput_rps": len(done) / sim_s,
            "sim_p50_ms": nearest_rank(exec_ms, 50),
            "sim_p99_ms": nearest_rank(exec_ms, 99),
            "sim_fail_permille": 1000.0 * failed / len(jobs),
            "sim_job_s": sum(exec_ms) / 1e3 / len(done) if done else 0.0,
            "sim_gc_s": (sum(j["minor_gc_us"] + j["major_gc_us"] for j in done)
                         / 1e6 / len(done)) if done else 0.0,
        }
    routers = outputs["routers"]
    generated = sum(r["generated"] for r in routers)
    failed = sum(router_failures(r) for r in routers)
    timely = sum(r["completed"] - r["late"] for r in routers)
    hist = merge_histograms(r["latency_hist"] for r in routers)
    return {
        "operations": generated,
        "failed": failed,
        "sim_goodput_rps": timely / sim_s,
        "sim_p50_ms": hist_percentile(hist, 50) / 1e3,
        "sim_p99_ms": hist_percentile(hist, 99) / 1e3,
        "sim_fail_permille": 1000.0 * failed / generated,
        "sim_job_s": 0.0,
        "sim_gc_s": 0.0,
    }


def pool(outputs_list):
    """One outputs object for a batch: request and job lists concatenated,
    numeric sections summed."""
    pooled = {}
    for outputs in outputs_list:
        for key, value in outputs.items():
            if isinstance(value, list):
                pooled.setdefault(key, []).extend(value)
            elif isinstance(value, dict):
                section = pooled.setdefault(key, {})
                for k, v in value.items():
                    if isinstance(v, (int, float)) and not isinstance(v, bool):
                        section[k] = section.get(k, 0) + v
                    # strings (the trace fingerprint) are per seed: not pooled
    return pooled


def batch_seeds(workload, seed):
    size = BATCH[workload]
    return [(seed * size + j) % REFERENCE_SEEDS for j in range(size)]


def robust_wall_ns(reps):
    """Wall time of one seed's run: per simulated-second chunk, the fastest
    of the seed's reps, summed over chunks. Interference from other tenants
    only ever adds time, and on a shared host it comes and goes within a
    second, so the fastest rep of each chunk is the steadiest estimate of
    the program's own cost; a median follows the share of time the host
    happened to be busy."""
    chunks = zip(*(rep["chunk_ns"] for rep in reps))
    return sum(min(chunk) for chunk in chunks)


def batch_rate(reps):
    """Simulated seconds per wall second over a batch of seeds."""
    by_seed = {}
    for rep in reps:
        by_seed.setdefault(rep["seed"], []).append(rep)
    sim_us = sum(group[0]["sim_us"] for group in by_seed.values())
    wall_ns = sum(robust_wall_ns(group) for group in by_seed.values())
    return sim_s_per_wall_s(sim_us, wall_ns)


def conservation_errors(outputs):
    """Router request-conservation identities, one message per violation."""
    errors = []
    for r in outputs.get("routers", []):
        if r["generated"] != r["admitted"] + r["rejected"]:
            errors.append(f"{r['tenant']}: generated != admitted + rejected")
        if r["admitted"] != (r["routed"] + r["dropped"] + r["unroutable"] +
                             r["shed"]):
            errors.append(f"{r['tenant']}: admitted != routed + dropped + "
                          "unroutable + shed")
    return errors


def digest(outputs, sim_us):
    """Digest of every simulated output and the sim_* figures derived from
    them; a perf or simplicity change must leave it unchanged."""
    body = {"outputs": outputs, "sim_us": sim_us,
            "sim": sim_metrics(outputs, sim_us)}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def layer_metrics(traced_reps, per_seed, sim_us):
    """Per-layer metrics: span times in wall µs per simulated second (each
    seed's median over its traced reps, summed over the batch), plus counts
    and ratios over the batch from each seed's outputs."""
    outputs = pool(per_seed)
    by_seed = {}
    for rep in traced_reps:
        by_seed.setdefault(rep["seed"], []).append(rep)

    def span(name):
        ns = sum(median([r["spans_ns"].get(name, 0) for r in group])
                 for group in by_seed.values())
        return us_per_sim_s(ns, sim_us)

    m = {}
    for name in ["cluster.step", "cluster.components", "cluster.trace",
                 "router.tick", "overload.admission_tick", "load.driver_tick",
                 "load.driver_self", "load.slo_tick", "cluster.autoscale_tick",
                 "sim.engine_step", "sched.tick", "mem.tick",
                 "core.monitor_tick"]:
        m[name + "_us"] = span(name)
    host_components = m["sched.tick_us"] + m["mem.tick_us"] + m["core.monitor_tick_us"]
    if m["cluster.step_us"] > 0:
        m["cluster.core_us"] = (m["cluster.step_us"] - m["cluster.components_us"]
                                - m["cluster.trace_us"] - host_components)
    else:
        m["cluster.core_us"] = 0.0
    m["router.inject_us"] = m["load.driver_tick_us"] - m["load.driver_self_us"]

    c = outputs.get("cluster", {})
    host_steps = sum(o["cluster"]["steps"] * o["cluster"]["hosts"]
                     for o in per_seed if "cluster" in o)
    m["cluster.host_ticks"] = host_steps - c.get("hosts_skipped", 0)
    m["cluster.hosts_skipped"] = c.get("hosts_skipped", 0)
    m["cluster.skip_ratio"] = c.get("hosts_skipped", 0) / host_steps if host_steps else 0.0
    m["cluster.fleet_rows_reused"] = c.get("fleet_rows_reused", 0)

    routers = outputs.get("routers", [])
    for key in ["generated", "routed", "completed", "retries", "dropped",
                "shed", "rejected", "degraded"]:
        m["router." + key] = sum(r[key] for r in routers)
    attempts = sum(r["attempts"] for r in routers)
    timely = sum(r["completed"] - r["late"] for r in routers)
    m["router.useful_ratio"] = timely / attempts if attempts else 0.0

    for key in ["cpu_grew", "cpu_shrank", "cpu_held", "mem_reset"]:
        m["core." + key] = outputs["core"][key]
    obs = outputs.get("obs", {})
    m["obs.trace_samples"] = obs.get("trace_samples", 0)
    m["obs.trace_series"] = obs.get("trace_series", 0)

    sim = sim_metrics(outputs, sim_us)
    for key in ["sim_goodput_rps", "sim_p50_ms", "sim_p99_ms",
                "sim_fail_permille", "sim_job_s", "sim_gc_s"]:
        m[key] = sim[key]
    return m


# --- building and running ----------------------------------------------------

def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure (once) and build the measuring binary; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        log(f"perfbench: no simulator sources at {ROOT} (need CMakeLists.txt and src/)")
        sys.exit(2)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            log("perfbench: cmake configure failed")
            sys.exit(3)
    jobs = str(min(4, os.cpu_count() or 1))
    if subprocess.run(["cmake", "--build", str(out), "--target", "arv_perfbench",
                       "-j", jobs], stdout=sys.stderr,
                      stderr=sys.stderr).returncode:
        log("perfbench: build failed")
        sys.exit(3)
    return out / "arv_perfbench"


def run_binary(binary, args, timeout):
    try:
        proc = subprocess.run([str(binary)] + args, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        log(f"perfbench: {' '.join(args)} did not finish in {timeout} s")
        sys.exit(4)
    if proc.returncode != 0:
        log(proc.stderr)
        log(f"perfbench: {' '.join(args)} exited with {proc.returncode}")
        sys.exit(4)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_reference():
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {"seeds": REFERENCE_SEEDS, "digests": {}}


def source_digest():
    """Content hash of the program's sources, which identifies the build
    when the checkout carries no git metadata."""
    h = hashlib.sha256()
    files = [ROOT / "CMakeLists.txt"] + sorted(
        p for p in (ROOT / "src").rglob("*") if p.is_file())
    for path in files:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def measure(binary, workload, seed, seconds, trace):
    """One workload in its own process; returns (result, report) where the
    result is the contract line and the report holds everything printed."""
    seeds = batch_seeds(workload, seed)
    raw = run_binary(binary, ["run", "--workload", workload,
                              "--seeds", ",".join(map(str, seeds)),
                              "--seconds", str(seconds),
                              "--trace", "1" if trace else "0"],
                     timeout=140)
    reps = raw["reps"]
    attempted = sum(rep["operations"] for rep in reps)
    reference = load_reference()["digests"].get(workload, [])

    problems = []
    outputs_by_seed = {}
    sim_us = 0
    digests = {}
    for s in seeds:
        mine = [rep for rep in reps if rep["seed"] == s]
        if len({rep["output"] for rep in mine}) != 1 or \
                len({rep["sim_us"] for rep in mine}) != 1:
            problems.append(f"seed {s}: reps of one seed disagree")
        outputs = raw["outputs"][mine[0]["output"]]
        outputs_by_seed[s] = outputs
        sim_us += mine[0]["sim_us"]
        problems += [f"seed {s}: {e}" for e in conservation_errors(outputs)]
        got = digest(outputs, mine[0]["sim_us"])
        digests[s] = got[:16]
        want = reference[s] if s < len(reference) else None
        if want is None:
            problems.append(f"seed {s}: no reference digest")
        elif got != want:
            problems.append(f"seed {s}: output digest {got[:16]} != "
                            f"reference {want[:16]}")

    pooled = pool(outputs_by_seed[s] for s in seeds)
    sim = sim_metrics(pooled, sim_us)
    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    speed = batch_rate(plain)
    if trace:
        metrics = layer_metrics(traced, [outputs_by_seed[s] for s in seeds],
                                sim_us)
        traced_speed = batch_rate(traced)
        # Traced minus untraced: negative when the probes slow the run.
        metrics["trace.overhead_sim_s_per_wall_s"] = traced_speed - speed
        metrics["trace.overhead_pct"] = 100.0 * (speed - traced_speed) / speed
        metrics.update(run_binary(binary, ["kernels"], timeout=30))
    else:
        metrics = {
            "sim_s_per_wall_s": speed,
            "setup_s": median([r["setup_ns"] / 1e9 for r in plain]),
            "peak_rss_mb": raw["meta"]["peak_rss_kb"] / 1024.0,
        }
    correct = not problems
    report = {
        "manifest": {
            "workload": workload, "seed": seed, "workload_seeds": seeds,
            "trace": int(trace), "commit": git_commit(),
            "source_sha256": source_digest(), "nproc": os.cpu_count(),
            "compiler": raw["meta"]["compiler"],
            "build_type": raw["meta"]["build_type"],
            "reps": len(plain), "traced_reps": len(traced),
            "cpu_moves": raw["meta"]["cpu_moves"], "digests": digests,
        },
        "sim": sim,
        "problems": problems,
    }
    result = {"correct": correct, "attempted": attempted,
              "failed": 0 if correct else attempted, "metrics": metrics}
    return result, report


def print_report(workload, result, report, units):
    print(f"== {workload}  manifest {json.dumps(report['manifest'], sort_keys=True)}")
    for name, value in result["metrics"].items():
        print(f"   {name:40s} {value:>16.6g} {units[name]}")
    sim = report["sim"]
    print(f"   simulated (checked by digest): fail {sim['sim_fail_permille']:.4f} permille"
          f" of {sim['operations']} ops, goodput {sim['sim_goodput_rps']:.6g} 1/s,"
          f" p50 {sim['sim_p50_ms']:.6g} ms, p99 {sim['sim_p99_ms']:.6g} ms,"
          f" job {sim['sim_job_s']:.6g} s, gc {sim['sim_gc_s']:.6g} s")
    for problem in report["problems"]:
        print(f"   OUTPUT CHECK FAILED: {problem}")


def main_run(args):
    end_to_end, per_layer = declared_metrics()
    units = per_layer if args.trace else end_to_end
    binary = build()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in workloads:
        result, report = measure(binary, workload, args.seed, args.seconds,
                                 args.trace)
        if set(result["metrics"]) != set(units):
            log(f"perfbench: {workload} measured {sorted(result['metrics'])}, "
                f"BENCHMARK.json declares {sorted(units)}")
            return 5
        print_report(workload, result, report, units)
        prefix = "" if len(workloads) == 1 else workload + "."
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, value in result["metrics"].items():
            combined["metrics"][prefix + name] = {"value": value,
                                                  "unit": units[name]}
    print(json.dumps(combined, sort_keys=True))
    return 0 if combined["correct"] else 1


def record_reference():
    binary = build()
    digests = {}
    for workload in WORKLOADS:
        digests[workload] = []
        for seed in range(REFERENCE_SEEDS):
            raw = run_binary(binary, ["run", "--workload", workload,
                                      "--seeds", str(seed), "--seconds", "0",
                                      "--max-reps", "1", "--trace", "0"],
                             timeout=170)
            outputs = raw["outputs"][0]
            errors = conservation_errors(outputs)
            if errors:
                log(f"perfbench: {workload} seed {seed}: {errors}")
                return 1
            digests[workload].append(digest(outputs, raw["reps"][0]["sim_us"]))
        log(f"recorded {workload}")
    REFERENCE.write_text(json.dumps({"seeds": REFERENCE_SEEDS,
                                     "digests": digests}, indent=1) + "\n")
    return 0


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record-reference", action="store_true")
    args = parser.parse_args(argv)
    if not (args.workload or args.self_test or args.record_reference):
        parser.error("one of --workload, --self-test, --record-reference is required")
    return args


def main(argv):
    args = parse_args(argv)
    if args.self_test:
        import selftest  # noqa: E402  (perfbench/selftest.py)
        return selftest.main(sys.modules[__name__])
    if args.record_reference:
        return record_reference()
    return main_run(args)


if __name__ == "__main__":
    sys.dont_write_bytecode = True
    sys.exit(main(sys.argv[1:]))
