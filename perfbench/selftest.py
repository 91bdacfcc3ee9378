"""Self-tests of the benchmark (python3 perfbench/run.py --self-test).

Checks the arithmetic that turns raw measurements into metrics, then builds
the simulator and checks that each workload's digest repeats exactly for
one seed (traced and untraced alike), matches the recorded reference, and
differs between two seeds.
"""


def check(cond, what):
    if not cond:
        raise AssertionError(what)
    print(f"ok   {what}")


def close(a, b):
    return abs(a - b) <= 1e-9 * max(1.0, abs(a), abs(b))


def router(**over):
    r = {"tenant": "t", "generated": 1000, "admitted": 900, "rejected": 100,
         "routed": 850, "dropped": 20, "unroutable": 10, "shed": 20,
         "lost": 5, "completed": 840, "late": 40, "attempts": 880,
         "retries": 30, "degraded": 0,
         "latency_hist": [[100, 109, 10], [110, 119, 30]]}
    r.update(over)
    return r


def arithmetic(run):
    check(close(run.us_per_sim_s(2_000_000, 4_000_000), 500.0),
          "2 ms of wall over 4 simulated s normalises to 500 us per sim-s")
    check(close(run.sim_s_per_wall_s(10_000_000, 500_000_000), 20.0),
          "10 simulated s in 0.5 wall s is 20 sim-s per wall-s")
    check(close(run.batch_rate([
        {"seed": 1, "sim_us": 2_000_000, "chunk_ns": [100, 400]},
        {"seed": 1, "sim_us": 2_000_000, "chunk_ns": [900, 200]},
        {"seed": 1, "sim_us": 2_000_000, "chunk_ns": [200, 300]},
        {"seed": 2, "sim_us": 1_000_000, "chunk_ns": [500]}]),
        3.0 / 800e-9), "a batch's rate is its simulated time over per-chunk fastest walls")

    sim = run.sim_metrics({"routers": [router()]}, 2_000_000)
    # failures: 100 rejected + 20 shed + 20 dropped + 10 unroutable + 5 lost
    # + 40 late = 195 of 1000 generated.
    check(sim["failed"] == 195, "failed requests = refused + lost + late")
    check(close(sim["sim_fail_permille"], 195.0), "sim_fail_permille = 1000 * failed / generated")
    check(close(sim["sim_goodput_rps"], 400.0),
          "sim_goodput_rps = (completed - late) / simulated seconds")
    check(close(sim["sim_p50_ms"], (110 + 9 * 10 / 30) / 1e3),
          "p50 interpolates by rank inside its bucket")
    check(close(sim["sim_p99_ms"], 0.119), "p99 of the last samples reads the bucket's upper bound")
    check(close(run.hist_percentile([[7, 7, 1]], 99), 7.0),
          "a one-value bucket reads exactly")

    jobs = [{"completed": True, "start_us": 0, "end_us": 10_000_000,
             "minor_gc_us": 1_000_000, "major_gc_us": 0},
            {"completed": True, "start_us": 0, "end_us": 30_000_000,
             "minor_gc_us": 2_000_000, "major_gc_us": 1_000_000},
            {"completed": False, "start_us": 0, "end_us": -1,
             "minor_gc_us": 0, "major_gc_us": 0}]
    sim = run.sim_metrics({"jobs": jobs}, 40_000_000)
    check(sim["failed"] == 1 and close(sim["sim_fail_permille"], 1000 / 3),
          "an unfinished job is a failed operation")
    check(close(sim["sim_goodput_rps"], 2 / 40), "job goodput = finished jobs per simulated second")
    check(close(sim["sim_job_s"], 20.0) and close(sim["sim_gc_s"], 2.0),
          "sim_job_s and sim_gc_s are means over finished jobs")
    check(close(sim["sim_p50_ms"], 10_000.0) and close(sim["sim_p99_ms"], 30_000.0),
          "job latency percentiles are nearest-rank execution times")

    check(run.conservation_errors({"routers": [router()]}) == [],
          "conservation identities hold for a consistent router")
    check(len(run.conservation_errors({"routers": [router(shed=21)]})) == 1,
          "a request missing from the dispositions is reported")

    seed_outputs = {"routers": [router()], "core": {"cpu_grew": 1, "cpu_shrank": 0,
                                                 "cpu_held": 0, "mem_reset": 0},
                    "cluster": {"steps": 100, "hosts": 10, "hosts_skipped": 250,
                                "fleet_rows_reused": 0}}
    layers = run.layer_metrics([], [seed_outputs, seed_outputs], 2_000_000)
    check(layers["cluster.host_ticks"] == 2 * (100 * 10) - 2 * 250
          and close(layers["cluster.skip_ratio"], 0.25),
          "host ticks and skip ratio count each seed's steps x hosts once")

    pooled = run.pool([{"routers": [router()], "core": {"cpu_grew": 2}},
                       {"routers": [router()], "core": {"cpu_grew": 3}}])
    check(len(pooled["routers"]) == 2 and pooled["core"]["cpu_grew"] == 5,
          "pooling concatenates requests and sums counters")


def digests(run):
    binary = run.build()
    reference = run.load_reference()["digests"]
    for workload in run.WORKLOADS:
        def rep_digests(seed, trace):
            raw = run.run_binary(binary, [
                "run", "--workload", workload, "--seeds", str(seed),
                "--seconds", "0", "--max-reps", "2", "--trace", str(trace)],
                timeout=170)
            return [run.digest(raw["outputs"][rep["output"]], rep["sim_us"])
                    for rep in raw["reps"]]

        plain = rep_digests(0, 0)
        traced = rep_digests(0, 1)
        other = rep_digests(1, 0)
        check(len(plain) == 2 and len(set(plain)) == 1,
              f"{workload}: seed 0 repeats its digest exactly")
        check(set(traced) == set(plain),
              f"{workload}: the traced rep reproduces the untraced digest")
        check(other[0] != plain[0], f"{workload}: seeds 0 and 1 give different digests")
        recorded = reference.get(workload, [])
        check(len(recorded) >= 2 and recorded[0] == plain[0] and recorded[1] == other[0],
              f"{workload}: digests match the recorded reference")


def main(run):
    try:
        arithmetic(run)
        digests(run)
    except AssertionError as failure:
        print(f"FAIL {failure}")
        return 1
    print("self-test passed")
    return 0
