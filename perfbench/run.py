#!/usr/bin/env python3
"""The repository's benchmark: one command, three workloads, one seed.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds perfbench_swarm from source (CMake,
Release) under $CARGO_TARGET_DIR/perfbench (default .bench_build), then runs
the workload in one benchmark process until --seconds have passed, checks every
result, and prints the metrics; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}.

--trace 0  end-to-end metrics, medians over the repetitions; the timed ones
           are scaled to the reference host speed (perfbench/README.md).
--trace 1  per-layer metrics: untraced repetitions for the reference wall time
           and trajectory digest, traced repetitions (spans around each
           engine call), the data-path and control-plane ladders, and the
           attribution of traced run time to layers. The full traced record,
           spans included, is written to the build directory.

See perfbench/README.md for the metric definitions.
"""
import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("swarm-wide", "bulk-recode", "churn-mixed")
# Headroom over the measured seconds before a benchmark process counts as hung.
HANG_TIMEOUT_S = 90
# Metrics that repeat bit-for-bit for every repetition and every seed.
EXACT = ("completion_ticks_p50", "completion_ticks_max", "data_overhead",
         "control_bytes_per_peer", "failed_fraction")

# The metric names and units are the ones BENCHMARK.json declares.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build():
    """Configures and builds perfbench_swarm; returns its path."""
    if not (ROOT / "src" / "core" / "sharded_delivery.hpp").is_file():
        raise RuntimeError(f"no icd sources under {ROOT / 'src'}")
    out = build_dir()
    configure = ["cmake", "-S", str(HERE), "-B", str(out),
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not (out / "CMakeCache.txt").is_file() and shutil.which("ninja"):
        configure += ["-G", "Ninja"]
    for command in (configure, ["cmake", "--build", str(out), "-j", "4"]):
        result = subprocess.run(command, stdout=subprocess.PIPE,
                                stderr=subprocess.STDOUT, text=True)
        if result.returncode != 0:
            log(result.stdout)
            raise RuntimeError(f"build failed: {' '.join(command)}")
    return out / "perfbench_swarm"


def drive(binary, args, mode, seconds, *extra):
    """One benchmark process repeating the workload for `seconds`; returns
    one result per repetition."""
    command = [str(binary), "--workload", args.workload, "--seed",
               str(args.seed), "--mode", mode, "--seconds", str(seconds),
               *extra]
    result = subprocess.run(command, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            timeout=seconds + HANG_TIMEOUT_S)
    if result.returncode != 0:
        log(result.stderr)
        raise RuntimeError(f"perfbench_swarm exited {result.returncode}: {command}")
    return [json.loads(line) for line in result.stdout.splitlines()]


class Checks:
    """Every correctness violation, listed; none is dropped.

    `attempted` and `failed` count deliveries: each survivor of each
    repetition is one attempt, and fails once when it ends without
    byte-correct content. The other checks are not deliveries; a violated
    one is listed in `problems` and makes the run incorrect."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def rep(self, rep, reference):
        self.attempted += rep["survivors"]
        self.failed += rep["survivors_failed"]
        if rep["survivors_failed"]:
            self.problems.append(f"{rep['survivors_failed']} survivors "
                                 "without byte-correct content")
        if rep["wrong_bytes"]:
            self.problems.append(f"{rep['wrong_bytes']} completed peers "
                                 "hold wrong bytes")
        if not rep["gates_pass"]:
            self.problems.append("scenario gates failed")
        if rep["digest"] != reference["digest"]:
            self.problems.append(f"trajectory digest {rep['digest']} != "
                                 f"{reference['digest']}")
        for key in EXACT:
            if rep[key] != reference[key]:
                self.problems.append(f"{key} {rep[key]} != {reference[key]}")


def untraced(binary, args, checks):
    reps = drive(binary, args, "run", args.seconds)
    for rep in reps:
        checks.rep(rep, reps[0])
    median = lambda key: statistics.median(rep[key] for rep in reps)
    # Wall times scaled to the reference host speed: the run's median wall
    # figure over the median of the speed indices timed next to each
    # repetition.
    speed = median("speed_index")
    first = reps[0]
    values = {
        "setup_s": median("setup_wall_s") * speed,
        "decoded_mb_per_s": median("decoded_mb_per_wall_s") / speed,
        "peak_rss_mb": median("peak_rss_mb"),
        "delivered_fraction": 1.0 - first["failed_fraction"],
    }
    for key in EXACT:
        if key in END_TO_END_UNITS:
            values[key] = first[key]
    print(f"{args.workload} seed {args.seed}: {len(reps)} repetitions, "
          f"run_s median {median('run_s'):.4f}, host speed index "
          f"{speed:.4f}, wall {median('decoded_mb_per_wall_s'):.4g} MB/s and "
          f"set-up {median('setup_wall_s'):.4g} s")
    return values


def traced(binary, args, checks):
    reference_reps = drive(binary, args, "run", args.seconds * 0.4,
                           "--min-reps", "2", "--setup-reps", "1")
    reference = reference_reps[0]
    trace_reps = drive(binary, args, "trace", args.seconds * 0.4,
                       "--min-reps", "2")
    ladder = trace_reps[0]
    for rep in reference_reps + trace_reps:
        checks.rep(rep, reference)

    untraced_s = statistics.median(r["run_s"] for r in reference_reps)
    traced_s = statistics.median(r["run_s"] for r in trace_reps)
    spans = sorted(trace_reps, key=lambda r: r["run_s"])[len(trace_reps) // 2]
    values = {key: ladder[key] for key in PER_LAYER_UNITS if key in ladder}
    for key in ("core.admission.refresh_tick_s", "core.admission.refresh_share",
                "core.engine.epoch_s", "core.engine.ns_per_peer_tick"):
        values[key] = spans[key]
    values["host.speed_index"] = statistics.median(
        r["speed_index"] for r in reference_reps)
    values["host.decoded_mb_per_wall_s"] = statistics.median(
        r["decoded_mb_per_wall_s"] for r in reference_reps)

    # Attribution: rung cost x counted operations / traced run seconds.
    frames = spans["wire.transport.data_frames"]
    run_s = spans["run_s"]
    shares = {
        "core.admission": spans["core.admission.refresh_tick_s"],
        "core.origin": ladder["core.origin.encode_ns"] * 1e-9
                       * spans["origin_symbols"],
        "core.peer": ladder["core.peer.recode_ns"] * 1e-9 * frames,
        "wire.transport": (ladder["wire.transport.send_ns"]
                           + ladder["wire.transport.receive_ns"])
                          * 1e-9 * frames,
        "wire.channel": ladder["wire.channel.hop_ns"] * 1e-9 * frames,
        "codec": ladder["core.peer.absorb_ns"] * 1e-9 * frames,
    }
    for layer, seconds in shares.items():
        values[f"trace.share.{layer}"] = seconds / run_s
    values["trace.unattributed_fraction"] = max(
        0.0, 1.0 - sum(shares.values()) / run_s)
    values["trace.overhead_fraction"] = traced_s / untraced_s - 1.0

    record = build_dir() / f"trace-{args.workload}-seed{args.seed}.json"
    record.write_text(json.dumps(
        {"untraced_run_s": [r["run_s"] for r in reference_reps],
         "traced": trace_reps}, indent=1))
    print(f"{args.workload} seed {args.seed}: {len(reference_reps)} untraced, "
          f"{len(trace_reps)} traced repetitions; digest "
          f"{reference['digest']}; record {record}")
    print("wire.udp.roundtrip_ns crosses the host loopback (127.0.0.1), "
          f"not a real link; {ladder['wire.udp.lost']} datagrams lost")
    return values


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    args.seed %= 1 << 64

    try:
        binary = build()
    except (RuntimeError, OSError) as error:
        log(f"perfbench: {error}")
        return 1
    checks = Checks()
    try:
        if args.trace:
            values, units = traced(binary, args, checks), PER_LAYER_UNITS
        else:
            values, units = untraced(binary, args, checks), END_TO_END_UNITS
    except (RuntimeError, subprocess.TimeoutExpired, ValueError,
            KeyError) as error:
        log(f"perfbench: {error}")
        return 1
    for problem in checks.problems:
        print(f"CHECK FAILED: {problem}")
    metrics = {}
    for name, unit in units.items():
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{args.workload}  {name} = {values[name]:.6g} {unit}")
    print(json.dumps({"correct": not checks.problems,
                      "attempted": checks.attempted,
                      "failed": checks.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
