"""vrf-sentinel benchmark: seeded inputs, timed CLI passes, output checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each CLI step runs as its own child
process, one at a time; its wall time is taken around the child and its
peak RSS from the child's own `os.wait4` rusage. Linux counts a parent's
peak RSS into the rusage of each child it starts later, so this process
stays small: output checks and the machine probe run in children too, and
its own peak RSS is recorded as `parent_peak_rss_mib`.

--trace 0: generate the inputs three to ten times, until 3 s are spent
(setup_s is the median), then run timed passes while another fits in
--seconds (at least one), and report the end-to-end metrics as medians.

--trace 1: generate the inputs once under the tracer, run one untraced pass
and one traced pass, and report the per-layer metrics.

Every pass's outputs are checked and their sha256 digests (all files but
manifest.json) must match across the passes of a run, traced or not, and
across set-ups. The last line of stdout is the JSON result; a fuller
record, with the machine and, when traced, every span, goes to
.bench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from tracer import layer_metrics  # noqa: E402
from workloads import WORKLOADS, Step, Workload  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
SETUP_MIN_REPEATS = 3
SETUP_MAX_REPEATS = 10
SETUP_MIN_SECONDS = 3.0  # cheap set-ups repeat until this much is spent
STEP_TIMEOUT_S = 150.0
POLL_S = 0.002


class SetupFailed(Exception):
    pass


@dataclass(frozen=True)
class ChildResult:
    wall_s: float
    peak_rss_mib: float
    ok: bool
    detail: str
    last_line: str  # of the child's output


def run_child(argv: list[str], log_path: str, env: dict[str, str]) -> ChildResult:
    """Run one child to completion; time it and read its own peak RSS."""
    pid, status, usage = 0, None, None
    timed_out = False
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=env, cwd=ROOT)
        try:
            while True:
                pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
                if pid:
                    break
                if time.perf_counter() - start > STEP_TIMEOUT_S:
                    timed_out = True
                    break
                time.sleep(POLL_S)
            wall = time.perf_counter() - start
        finally:
            if not pid:  # timed out or interrupted: end the child and reap it
                proc.kill()
                _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    with open(log_path, "rb") as fh:
        output = fh.read()
    traceback = b"Traceback (most recent call last)" in output
    last_line = (output.strip().splitlines() or [b""])[-1].decode("utf-8", "replace")
    if timed_out:
        ok, detail = False, f"timed out after {STEP_TIMEOUT_S:.0f} s"
    elif proc.returncode != 0 or traceback:
        ok, detail = False, f"exit {proc.returncode}{', traceback' if traceback else ''}: {last_line}"
    else:
        ok, detail = True, ""
    return ChildResult(wall, usage.ru_maxrss / 1024.0, ok, detail, last_line)


def digests(directory: str) -> dict[str, str]:
    """sha256 of every file under directory except run manifests."""
    out = {}
    for base, _dirs, files in os.walk(directory):
        for name in files:
            if name == "manifest.json":
                continue
            path = os.path.join(base, name)
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for chunk in iter(lambda: fh.read(1 << 20), b""):
                    h.update(chunk)
            out[os.path.relpath(path, directory)] = h.hexdigest()
    return out


class Bench:
    def __init__(self, workload: Workload, seed: int) -> None:
        self.workload = workload
        self.seed = seed
        self.work = os.path.join(ROOT, ".bench_work", f"{workload.name}-{seed}-{os.getpid()}")
        self.logs = os.path.join(self.work, "logs")
        os.makedirs(self.logs)
        self.env = dict(os.environ)
        src = os.path.join(ROOT, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] if self.env.get("PYTHONPATH") else src
        self.attempted = 0
        self.failures: list[str] = []
        self.reference: dict[str, str] | None = None
        self.spans: list[dict] = []
        self.span_walls: dict[str, float] = {}

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass  # another run still uses it

    def _op(self, name: str, ok: bool, detail: str = "") -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")
        return ok

    def child(self, mode: str, args: list[str], label: str, traced: bool) -> ChildResult:
        """Run one child; when traced, keep the spans it wrote."""
        name = label.replace("/", "_")
        spans = os.path.join(self.work, name + ".spans.json")
        if traced:
            argv = [sys.executable, CHILD, "--spans", spans, "--tag", label, mode, *args]
        elif mode == "cli":
            argv = [sys.executable, "-m", "vrf_sentinel.cli", *args]
        else:
            argv = [sys.executable, CHILD, mode, *args]
        result = run_child(argv, os.path.join(self.logs, name + ".log"), self.env)
        if traced and result.ok:
            with open(spans, encoding="utf-8") as fh:
                self.spans.append(json.load(fh))
            self.span_walls[label] = result.wall_s
        return result

    def setup(self, index: int, traced: bool) -> tuple[str, float]:
        """Generate the inputs into a fresh directory; raise if that failed."""
        inputs = os.path.join(self.work, f"inputs{index}")
        mode, args = self.workload.setup(self.seed, inputs)
        label = f"{self.workload.name}/setup/{index}"
        result = self.child(mode, args, label, traced)
        if not self._op(f"setup {index}", result.ok, result.detail):
            raise SetupFailed(result.detail)
        return inputs, result.wall_s

    def same_inputs(self, first: str, other: str) -> None:
        a, b = digests(first), digests(other)
        self._op("set-up digests", a == b, f"{sorted(set(a.items()) ^ set(b.items()))[:4]}")

    def run_pass(self, inputs: str, index: int, traced: bool) -> dict:
        out = os.path.join(self.work, f"pass{index}")
        steps: list[Step] = self.workload.steps(self.seed, inputs, out)
        walls: dict[str, float] = {}
        rss: dict[str, float] = {}
        ok = True
        start = time.perf_counter()
        for k, step in enumerate(steps):
            label = f"{self.workload.name}/pass/{index}/{k}-{step.name}"
            result = self.child("cli", step.args, label, traced)
            walls[step.name] = walls.get(step.name, 0.0) + result.wall_s
            rss[step.name] = max(rss.get(step.name, 0.0), result.peak_rss_mib)
            if not self._op(label, result.ok, result.detail):
                ok = False
                break
        wall = time.perf_counter() - start
        if ok:
            label = f"{self.workload.name}/check/{index}"
            result = self.child("check", [self.workload.name, str(self.seed), inputs, out], label, False)
            if not result.ok:
                self._op(f"pass {index} checks", False, result.detail)
            else:
                for name, passed, detail in json.loads(result.last_line):
                    self._op(f"pass {index} check {name}", passed, detail)
            found = digests(out)
            if self.reference is None:
                self.reference = found
            else:
                diff = sorted(k for k in set(found) | set(self.reference)
                              if found.get(k) != self.reference.get(k))
                self._op(f"pass {index} digests", not diff, f"differ: {diff[:4]}")
        shutil.rmtree(out, ignore_errors=True)
        return {"wall_s": wall, "steps": walls, "peak_rss_mib": rss, "ok": ok,
                "peak": max(rss.values()) if rss else 0.0}


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    opts = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "vrf_sentinel", "cli.py")):
        print(f"error: no vrf_sentinel sources under {ROOT}/src", file=sys.stderr)
        return 2

    workload = WORKLOADS[opts.workload]
    bench = Bench(workload, opts.seed)
    probe = bench.child("machine", [], "machine", False)
    info = json.loads(probe.last_line) if probe.ok else {"error": probe.detail}
    print(json.dumps({"machine": info}), flush=True)
    record: dict = {"workload": workload.name, "seed": opts.seed, "trace": opts.trace,
                    "machine": info}
    try:
        if opts.trace:
            inputs, setup_wall = bench.setup(0, traced=True)
            plain = bench.run_pass(inputs, 0, traced=False)
            traced = bench.run_pass(inputs, 1, traced=True)
            ratio = traced["wall_s"] / plain["wall_s"] if plain["wall_s"] else 0.0
            untraced = {name: {"wall_s": plain["steps"][name], "peak_rss_mib": plain["peak_rss_mib"][name]}
                        for name in plain["steps"]}
            metrics = layer_metrics(bench.spans, bench.span_walls, untraced, ratio)
            record.update(passes=[plain, traced], setup_s=[setup_wall], spans=bench.spans)
        else:
            setups = [bench.setup(0, traced=False)]
            while len(setups) < SETUP_MAX_REPEATS and (
                len(setups) < SETUP_MIN_REPEATS or sum(w for _d, w in setups) < SETUP_MIN_SECONDS
            ):
                setups.append(bench.setup(len(setups), traced=False))
            inputs = setups[0][0]
            for other, _wall in setups[1:]:
                bench.same_inputs(inputs, other)
                shutil.rmtree(other, ignore_errors=True)
            units = workload.units(inputs)
            passes: list[dict] = []
            spent = 0.0
            while not passes or spent + _median([p["wall_s"] for p in passes]) <= opts.seconds:
                passes.append(bench.run_pass(inputs, len(passes), traced=False))
                spent += passes[-1]["wall_s"]
                if not passes[-1]["ok"]:
                    break
            good = [p for p in passes if p["ok"]] or passes
            walls = [p["wall_s"] for p in good]
            metrics = {
                "wall_s": (_median(walls), "s"),
                "throughput": (_median([units / w for w in walls]), "1/s"),
                "peak_rss_mib": (_median([p["peak"] for p in good]), "MiB"),
                "setup_s": (_median([w for _d, w in setups]), "s"),
            }
            record.update(passes=passes, setup_s=[w for _d, w in setups], work_units=units)
            print(f"{workload.name} seed {opts.seed}: {len(good)} passes, "
                  f"{len(setups)} set-ups; medians reported", flush=True)
    except SetupFailed:
        for failure in bench.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        return 1
    finally:
        bench.close()

    record.update(parent_peak_rss_mib=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  attempted=bench.attempted, failures=bench.failures,
                  metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})
    for failure in bench.failures:
        print(f"FAILED {failure}", flush=True)
    results = os.path.join(ROOT, ".bench_results")
    os.makedirs(results, exist_ok=True)
    with open(os.path.join(results, f"{workload.name}-seed{opts.seed}-trace{opts.trace}.json"),
              "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({
        "correct": not bench.failures,
        "attempted": bench.attempted,
        "failed": len(bench.failures),
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
