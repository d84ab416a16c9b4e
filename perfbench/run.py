"""descent-kit benchmark: CLI wall time per command on four seeded workloads.

    python3 perfbench/run.py --workload qq-differential --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout; the CLI is imported from ``src/``.
The benchmark generates the workload's problem from the seed (``gen.py``)
and runs every CLI command on it in a fresh interpreter, one command at a
time (a closed loop with one client), cycling through the commands until
``--seconds`` have passed.  Each command is timed from spawn to exit, and
its exit code and the sha256 of its report are checked against the table
pinned in ``pins.json``.  The last line of stdout is one JSON object.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json: the wall
time of each command, ``setup_s`` (the median time of a fresh interpreter
importing ``descent_kit``, sampled once per cycle) and
``peak_rss_mb`` (the largest child ``ru_maxrss``).  A command's time is the
mean of its runs: on a shared machine the speed of the CPU drifts by up to
30% over a few seconds, and across runs of this benchmark the mean of a
run's samples spread less than their median or their minimum.

``--trace 1`` runs each command once untraced and twice under
``trace_child.py`` (a fixed amount of work; ``--seconds`` is not used),
checks that the three reports are byte-identical and that every ``calls``
count repeats exactly, and reports the per-layer metrics of BENCHMARK.json
summed over the commands, with times averaged over the two traced runs.
It also prints calls, span time and self time of every traced layer; the
result holds a layer's time only where every workload reaches the layer,
so that no reported time is a constant 0.
It prints the tracing overhead (traced minus untraced wall time) of each
command and reports their sum as ``trace.overhead_s``.

``--pin`` runs every command on every variant of every workload once and
rewrites ``pins.json``; run it only on a commit whose reports are trusted.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time

import gen

HERE = os.path.dirname(os.path.abspath(__file__))
PINS = os.path.join(HERE, "pins.json")

# end-to-end metric -> CLI arguments of the command it times
COMMANDS = {
    "validate_s": ["validate"],
    "matrix_s": ["matrix"],
    "descend_s": ["descend"],
    "descend_audit_s": ["descend", "--audit"],
    "adjoint_check_s": ["adjoint-check"],
    "compose_check_s": ["compose-check"],
}

COMMAND_TIMEOUT_S = 60.0
# Stop starting commands after this long, so a run ends within 180 s even
# when the program has become much slower.
RUN_LIMIT_S = 150.0


class Checkout:
    """The source checkout under test and a scratch directory inside it."""

    def __init__(self, root: str):
        self.root = root
        self.src = os.path.join(root, "src")
        if not os.path.isfile(os.path.join(self.src, "descent_kit", "cli.py")):
            raise SystemExit(f"no descent_kit sources under {self.src}")
        self.env = dict(os.environ)
        # Commands run with a bytecode cache, as an installed CLI does.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (self.src, os.environ.get("PYTHONPATH")) if p
        )
        scratch = os.path.join(root, ".perfbench")
        os.makedirs(scratch, exist_ok=True)
        self.work = tempfile.mkdtemp(dir=scratch)

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)

    def spawn(self, argv, timeout=COMMAND_TIMEOUT_S):
        """Run ``argv`` to its exit; (wall seconds, exit code or None on timeout).

        A timer thread kills the child at the timeout, so the wait itself
        blocks and returns at the child's exit; ``Popen.wait(timeout)``
        would poll in steps of up to 50 ms.
        """
        expired = threading.Event()
        start = time.perf_counter()
        proc = subprocess.Popen(argv, env=self.env, cwd=self.root,
                                stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)

        def expire():
            expired.set()
            proc.kill()

        timer = threading.Timer(timeout, expire)
        timer.start()
        try:
            code = proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            timer.join()
        return time.perf_counter() - start, None if expired.is_set() else code

    def import_time(self) -> float:
        wall, code = self.spawn([sys.executable, "-c", "import descent_kit"])
        if code != 0:
            raise SystemExit("importing descent_kit failed")
        return wall


class Command:
    """One CLI command on one problem file, checked against its pin."""

    def __init__(self, checkout: Checkout, metric: str, problem: str, pin: dict):
        self.checkout = checkout
        self.metric = metric
        self.pin = pin
        self.report = os.path.join(checkout.work, f"{metric}.json")
        self.cli_argv = [*COMMANDS[metric], "--input", problem, "--output", self.report]

    def run(self, timeout, traced_stats=None):
        """(wall seconds, exit code, report bytes or None, failure reason or None)."""
        if os.path.exists(self.report):
            os.remove(self.report)
        if traced_stats is None:
            argv = [sys.executable, "-m", "descent_kit.cli", *self.cli_argv]
        else:
            argv = [sys.executable, os.path.join(HERE, "trace_child.py"),
                    traced_stats, *self.cli_argv]
        wall, code = self.checkout.spawn(argv, timeout)
        report = None
        if os.path.exists(self.report):
            with open(self.report, "rb") as handle:
                report = handle.read()
        failure = None
        if code is None:
            failure = f"timed out after {timeout:.0f}s"
        elif self.pin is None:
            pass
        elif code != self.pin["exit"]:
            failure = f"exit {code}, pinned {self.pin['exit']}"
        elif hashlib.sha256(report or b"").hexdigest() != self.pin["sha256"]:
            failure = "report sha256 differs from the pinned one"
        return wall, code, report, failure


def load_pins(workload: str) -> dict:
    with open(PINS, encoding="utf-8") as handle:
        pins = json.load(handle)[workload]
    if pins["params"] != gen.SIZES[workload] or len(pins["variants"]) != gen.VARIANTS:
        raise SystemExit(f"pins.json does not match the sizes of {workload} in gen.py")
    return pins["variants"]


def write_problem(checkout: Checkout, workload: str, seed: int) -> str:
    path = os.path.join(checkout.work, "problem.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(gen.generate(workload, seed), handle, indent=1)
    return path


def remaining(started: float) -> float:
    return RUN_LIMIT_S - (time.perf_counter() - started)


def run_untraced(checkout, commands, seconds, started):
    """Cycle through the commands for ``seconds``; end-to-end metrics."""
    checkout.import_time()  # warm-up: writes the bytecode cache
    setup = []
    samples = {c.metric: [] for c in commands}
    attempted = failed = 0
    deadline = time.perf_counter() + seconds
    done = False
    while not done:
        setup.append(checkout.import_time())
        for command in commands:
            budget = min(COMMAND_TIMEOUT_S, remaining(started))
            past_deadline = time.perf_counter() >= deadline and samples[command.metric]
            if budget <= 0 or past_deadline:
                done = True
                break
            wall, _, _, failure = command.run(budget)
            attempted += 1
            samples[command.metric].append(wall)
            if failure:
                failed += 1
                print(f"FAILED {command.metric}: {failure}", file=sys.stderr)
    for metric, values in samples.items():
        if not values:  # the run limit left no time for this command
            failed += 1
            attempted += 1
            values.append(RUN_LIMIT_S)
        print(f"{metric:18s} mean {statistics.fmean(values):8.4f} s over {len(values)} runs "
              f"(min {min(values):.4f}, median {statistics.median(values):.4f}, "
              f"max {max(values):.4f})")
    metrics = {"setup_s": statistics.median(setup)}
    metrics.update({m: statistics.fmean(v) for m, v in samples.items()})
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    units = {"peak_rss_mb": "MB"}
    metrics = {m: {"value": v, "unit": units.get(m, "s")} for m, v in metrics.items()}
    return metrics, attempted, failed


def layer_metric(name: str, stats: dict, overhead: float) -> dict:
    """One per-layer metric from summed trace stats, named as in BENCHMARK.json."""
    layers, homs = stats["layers"], stats["homs"]
    if name == "trace.overhead_s":
        return {"value": overhead, "unit": "s"}
    if name == "homs.candidates":
        return {"value": homs["candidates"], "unit": "count"}
    if name == "homs.accept_ratio":
        ratio = homs["accepted"] / homs["candidates"] if homs["candidates"] else 0.0
        return {"value": ratio, "unit": "ratio"}
    layer, field = name.rsplit(".", 1)
    totals = layers[layer]
    if field == "fail_ratio":
        calls = totals["calls"]
        return {"value": totals["raised"].get("NotAUnit", 0) / calls if calls else 0.0,
                "unit": "ratio"}
    return {"value": totals[field], "unit": "count" if field == "calls" else "s"}


def add_stats(total: dict, stats1: dict, stats2: dict) -> None:
    """Add two traced runs of one command into ``total``: counts once, mean times."""
    for layer, t in stats1["layers"].items():
        acc = total["layers"].setdefault(layer, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                                  "raised": {}})
        acc["calls"] += t["calls"]
        for field in ("s", "self_s"):
            acc[field] += (t[field] + stats2["layers"][layer][field]) / 2
        for exc, n in t["raised"].items():
            acc["raised"][exc] = acc["raised"].get(exc, 0) + n
    for key, n in stats1["homs"].items():
        total["homs"][key] = total["homs"].get(key, 0) + n


def run_traced(checkout, commands, started, per_layer):
    """Each command untraced once and traced twice; per-layer metrics."""
    total = {"layers": {}, "homs": {}}
    overhead = 0.0
    attempted = failed = 0
    for command in commands:
        runs = []
        for traced in (False, True, True):
            budget = min(COMMAND_TIMEOUT_S, remaining(started))
            if budget <= 0:
                raise SystemExit("the traced run exceeded its time limit")
            stats_path = os.path.join(checkout.work, f"stats{len(runs)}.json") if traced else None
            wall, _, report, failure = command.run(budget, stats_path)
            stats = None
            if traced and failure is None:
                with open(stats_path, encoding="utf-8") as handle:
                    stats = json.load(handle)
            runs.append((wall, report, stats))
            attempted += 1
            if failure:
                failed += 1
                print(f"FAILED {command.metric}: {failure}", file=sys.stderr)
        (plain, report0, _), (traced1, report1, stats1), (_, report2, stats2) = runs
        if not report0 == report1 == report2:
            failed += 1
            print(f"FAILED {command.metric}: traced report differs from untraced",
                  file=sys.stderr)
        if stats1 is None or stats2 is None:
            continue
        calls1 = {k: v["calls"] for k, v in stats1["layers"].items()}
        calls2 = {k: v["calls"] for k, v in stats2["layers"].items()}
        if calls1 != calls2 or stats1["homs"] != stats2["homs"]:
            failed += 1
            print(f"FAILED {command.metric}: calls counts differ between traced runs",
                  file=sys.stderr)
        add_stats(total, stats1, stats2)
        overhead += traced1 - plain
        print(f"{command.metric:18s} untraced {plain:8.4f} s  traced {traced1:8.4f} s  "
              f"overhead {traced1 - plain:8.4f} s")
    if not total["layers"]:
        raise SystemExit("no traced run succeeded")
    for layer, t in total["layers"].items():
        print(f"{layer:34s} calls {t['calls']:9d}  s {t['s']:9.4f}  self_s {t['self_s']:9.4f}")
    metrics = {name: layer_metric(name, total, overhead) for name in per_layer}
    return metrics, attempted, failed


def benchmark_spec(root: str) -> dict:
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def pin_all(root: str) -> None:
    """Capture the exit code and report sha256 of every (workload, variant, command)."""
    checkout = Checkout(root)
    pins = {}
    try:
        for workload in gen.FAMILIES:
            variants = {}
            for variant in range(gen.VARIANTS):
                problem = write_problem(checkout, workload, variant)
                entry = {}
                for metric in COMMANDS:
                    command = Command(checkout, metric, problem, None)
                    wall, code, report, failure = command.run(COMMAND_TIMEOUT_S)
                    if failure or report is None:
                        raise SystemExit(f"{workload}/{variant} {metric}: {failure or 'no report'}")
                    entry[metric] = {"exit": code, "sha256": hashlib.sha256(report).hexdigest()}
                    print(f"{workload} {variant} {metric} {wall:.2f}s", file=sys.stderr)
                variants[str(variant)] = entry
            pins[workload] = {"params": gen.SIZES[workload], "variants": variants}
    finally:
        checkout.close()
    with open(PINS, "w", encoding="utf-8") as handle:
        json.dump(pins, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(gen.FAMILIES))
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true", help="rewrite pins.json")
    args = parser.parse_args(argv)
    root = os.getcwd()
    if args.pin:
        pin_all(root)
        return 0
    if args.workload is None or args.seed is None or args.seconds is None:
        parser.error("--workload, --seed and --seconds are required")

    # A SIGTERM unwinds like an error, so the running command is stopped and
    # the scratch directory removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    started = time.perf_counter()
    pins = load_pins(args.workload)[str(gen.variant_of(args.seed))]
    checkout = Checkout(root)
    try:
        problem = write_problem(checkout, args.workload, args.seed)
        commands = [Command(checkout, m, problem, pins[m]) for m in COMMANDS]
        if args.trace:
            per_layer = [m["name"] for m in benchmark_spec(root)["per_layer"]]
            metrics, attempted, failed = run_traced(checkout, commands, started, per_layer)
        else:
            metrics, attempted, failed = run_untraced(checkout, commands, args.seconds, started)
    finally:
        checkout.close()
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
