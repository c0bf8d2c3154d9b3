#!/usr/bin/env python3
"""perfbench: the one benchmark for mvec.

    python3 perfbench/run.py [--workload NAME] [--seed N] [--seconds S]
                             [--trace 0|1]

Builds the measurement engine (perfbench/CMakeLists.txt, from the
repository's src/) into .bench_build/, runs one workload (or both
when --workload is omitted) from the seed, checks every output, and
prints each metric by name with its unit. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end metrics; with --trace 1 they are
the per-layer metrics from a traced run (see perfbench/README.md for the
workloads, the metrics, and which layer metric should move which
end-to-end metric).

Exit status: 0 when every check passed, 1 on a correctness violation
(the result line is still printed, with "correct": false), 2 when the
engine cannot be built or run (no result line).
"""

import argparse
import hashlib
import json
import os
import platform
import select
import shutil
import subprocess
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import benchlib as bl  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
ENGINE = os.path.join(BUILD, "mvec_perfbench")

WORKLOADS = ("compile-stream", "paper-kernels")

# Set-up is repeated and its median reported, so work moved into set-up
# shows without one slow boot deciding the number.
SETUP_REPEATS = 9

# The timed phase interleaves a fixed calibration task (calibrationMs in
# engine/Calibration.cpp, which uses nothing of the program under test)
# with the measured work, and its timing metrics are reported at the host
# speed where that task takes CALIB_REFERENCE_MS, so a host whose speed
# drifts (shared machines drift by tens of percent over minutes) moves
# them much less. Each run-form sample and each set-up is scaled by the
# calibration taken with it; the metrics in SCALED, pooled over the whole
# phase, by the phase's median calibration. Times scale by CALIB_REFERENCE_MS /
# calibration, rates by its inverse.
CALIB_REFERENCE_MS = 5.0
SCALED = {"compile_scripts_per_s": "rate", "validated_scripts_per_s": "rate",
          "compile_p50_ms": "time", "compile_p99_ms": "time"}

# The traced runs' daemon phase: a WARMUP_S step, then one untraced and
# one traced step of DAEMON_STEP_S at DAEMON_RATE (requests/s) against an
# in-process daemon, then a SANDBOX_STEP_S step at SANDBOX_RATE against a
# process-isolated one.
DAEMON_RATE = 4000.0
DAEMON_STEP_S = 3.0
WARMUP_S = 1.0
SANDBOX_RATE = 2000.0
SANDBOX_STEP_S = 3.0

# The eight timed programs of the paper's tables; per-program rows use
# these names on both workloads (paper sizes on paper-kernels, the small
# corpus sizes on compile-stream).
PAPER_PROGRAMS = ("fig3-histeq", "fig4-compound", "table2-pattern1-dot",
                  "table2-pattern2-repmat", "table2-pattern3-diagonal",
                  "table3-ex1", "table3-ex2", "table3-ex3")
SIMD_KERNELS = ("elementwise", "compare", "fused_mul_add", "matmul",
                "reduce", "cumsum", "unary")
RUN_FORMS = (("loop", "loop_run_ms", "interp.loop_ms"),
             ("vec", "vec_run_ms", "interp.vec_ms"),
             ("vm_loop", "vm_loop_run_ms", "vm.loop_ms"),
             ("vm_vec", "vm_vec_run_ms", "vm.vec_ms"))

END_TO_END = (
    ("setup_s", "s"), ("peak_rss_mb", "MB"), ("ok_frac", "fraction"),
    ("compile_scripts_per_s", "scripts/s"), ("compile_p50_ms", "ms"),
    ("compile_p99_ms", "ms"), ("validated_scripts_per_s", "scripts/s"),
    ("vectorized_stmt_share", "fraction"), ("loop_run_ms", "ms"),
    ("vec_run_ms", "ms"), ("vm_loop_run_ms", "ms"), ("vm_vec_run_ms", "ms"),
)

PER_LAYER = (
    [("frontend.parse_ms", "ms"), ("shape.infer_ms", "ms"), ("deps.ms", "ms"),
     ("deps.edges", "count"), ("vectorizer.ms.cost_off", "ms"),
     ("vectorizer.ms.cost_on", "ms"), ("driver.print_ms", "ms"),
     ("vectorizer.stmts_vectorized", "count"),
     ("vectorizer.stmts_sequential", "count"),
     ("vectorizer.nests_ineligible", "count"), ("cost.stmts_kept", "count"),
     ("cost.nests_kept_loop", "count"), ("cost.variant_overrides", "count"),
     ("driver.validate_ms", "ms"), ("interp.validate_run_ms", "ms")]
    + [(f"{row}.{p}", "ms") for p in PAPER_PROGRAMS
       for row in [r[2] for r in RUN_FORMS] + ["vm.compile_ms"]]
    + [(f"simd.calls.{k}", "count") for k in SIMD_KERNELS]
    + [("server.ping_p50_ms", "ms"), ("daemon.memory_hit_p50_ms", "ms"),
       ("service.queue_ms", "ms"), ("service.vectorize_ms", "ms"),
       ("service.validate_ms", "ms"), ("daemon.cold_p50_ms", "ms"),
       ("service.cache_hit_ratio", "fraction"),
       ("diskstore.hit_ratio", "fraction"), ("daemon.disk_hit_p50_ms", "ms"),
       ("sandbox.memory_hit_p50_ms", "ms"), ("sandbox.crashes", "count"),
       ("sandbox.respawns", "count"), ("daemon.shed", "count"),
       ("generator.late_p99_ms", "ms"), ("tracing.overhead_frac", "fraction")]
)

# Span name recorded by the engine -> per-layer metric (median span ms).
SPAN_METRICS = {
    "frontend.parseMatlab": "frontend.parse_ms",
    "shape.infer": "shape.infer_ms",
    "deps.analyze": "deps.ms",
    "vectorizer.cost_off": "vectorizer.ms.cost_off",
    "vectorizer.cost_on": "vectorizer.ms.cost_on",
    "driver.printProgram": "driver.print_ms",
    "driver.diffRunLimited": "driver.validate_ms",
    "interp.validate_run": "interp.validate_run_ms",
    "server.ping": "server.ping_p50_ms",
    "daemon.memory_hit": "daemon.memory_hit_p50_ms",
    "daemon.disk_hit": "daemon.disk_hit_p50_ms",
    "daemon.cold": "daemon.cold_p50_ms",
}
COUNT_METRICS = ("deps.edges", "vectorizer.stmts_vectorized",
                 "vectorizer.stmts_sequential", "vectorizer.nests_ineligible",
                 "cost.stmts_kept", "cost.nests_kept_loop",
                 "cost.variant_overrides")


class EngineError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise EngineError("no repository sources next to perfbench/")
    os.makedirs(BUILD, exist_ok=True)
    logpath = os.path.join(BUILD, "build.log")
    with open(logpath, "w") as out:
        steps = []
        if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "mvec_perfbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              timeout=840).returncode != 0:
                with open(logpath) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise EngineError("engine build failed: " + " ".join(cmd))


def build_type():
    try:
        with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
            for line in f:
                if line.startswith("CMAKE_BUILD_TYPE:"):
                    return line.split("=", 1)[1].strip() or "(none)"
    except OSError:
        pass
    return "unknown"


def source_identity():
    """The commit when the checkout is a git repository, else a digest of
    the sources the engine was built from."""
    try:
        out = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10)
        lines = out.stdout.split()
        if (out.returncode == 0 and len(lines) == 2
                and os.path.samefile(lines[0], ROOT)):
            return lines[1]
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for base in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, base)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-sha256:" + digest.hexdigest()[:16]


class Engine:
    """The measurement engine as a child process: one command per line,
    one JSON reply per line."""

    def __init__(self, workload, seed, workdir):
        self.proc = subprocess.Popen(
            [ENGINE, "--workload", workload, "--seed", str(seed),
             "--workdir", workdir],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)

    def send(self, line, timeout):
        self.proc.stdin.write(line + "\n")
        self.proc.stdin.flush()
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise EngineError(f"engine did not answer '{line}' in {timeout}s")
        reply = self.proc.stdout.readline()
        if not reply:
            raise EngineError(f"engine exited during '{line}'")
        data = json.loads(reply)
        if not data.get("ok"):
            raise EngineError(f"'{line}' failed: {data.get('error')}")
        return data

    def close(self):
        if self.proc.poll() is None:
            try:
                self.proc.stdin.write("quit\n")
                self.proc.stdin.flush()
                self.proc.wait(timeout=60)
            except (OSError, subprocess.TimeoutExpired):
                self.proc.kill()
                self.proc.wait()


class Result:
    """Everything one workload run measured."""

    def __init__(self):
        self.e2e = {}
        self.layer = {name: 0 for name, _ in PER_LAYER}
        self.attempted = 0
        self.failed = 0
        self.rejected = 0
        self.violations = []
        self.timings = {}
        self.info = {}
        self.peak_rss_kb = 0

    def absorb(self, reply):
        self.violations += reply.get("violations", [])
        self.peak_rss_kb = max(self.peak_rss_kb, reply.get("peak_rss_kb", 0))


def span_durations(spans):
    """{span name: [ms, ...]} from the engine's [name, parent, start, dur]
    records."""
    out = {}
    for name, _parent, _start, dur in spans:
        out.setdefault(name, []).append(dur / 1e6)
    return out


def apply_spans(res, spans):
    for name, durations in span_durations(spans).items():
        if name in SPAN_METRICS and durations:
            res.layer[SPAN_METRICS[name]] = bl.median(durations)
            res.timings["span " + name] = durations


def apply_counts(res, counts):
    for name in COUNT_METRICS:
        if name in counts:
            res.layer[name] = counts[name]


def at_reference(series, name):
    """The samples of one run-form series, each scaled to the reference
    host speed by the calibration taken with it."""
    return [bl.to_reference(v, "time", c, CALIB_REFERENCE_MS)
            for v, c in zip(series[name], series["calib." + name])]


def run_geomeans(res, series, programs):
    """The four run-time metrics: geomean over programs of each program's
    median ms per call at the reference host speed."""
    for form, metric, _row in RUN_FORMS:
        names = [f"run.{form}.{p}" for p in programs
                 if series.get(f"run.{form}.{p}")]
        res.e2e[metric] = bl.geomean(
            bl.median(at_reference(series, n)) for n in names)
        res.info["unscaled " + metric] = bl.geomean(
            bl.median(series[n]) for n in names)
        res.info[f"{metric} programs"] = len(names)


def program_rows(res, series):
    for p in PAPER_PROGRAMS:
        for form, _metric, row in RUN_FORMS:
            if series.get(f"run.{form}.{p}"):
                res.layer[f"{row}.{p}"] = bl.median(series[f"run.{form}.{p}"])
        if series.get(f"vm.compile.{p}"):
            res.layer[f"vm.compile_ms.{p}"] = bl.median(
                series[f"vm.compile.{p}"])


def speedups(res, series, programs):
    """Paper-table speedups (loop / vectorized), printed for reading only:
    a faster interpreter loop would read as a regression."""
    for p in programs:
        loop, vec = series.get(f"run.loop.{p}"), series.get(f"run.vec.{p}")
        if loop and vec:
            res.info[f"speedup {p}"] = bl.median(loop) / bl.median(vec)


def compile_metrics(res, compile_ms):
    res.e2e["compile_scripts_per_s"] = bl.rate(compile_ms)
    res.e2e["compile_p50_ms"] = bl.median(compile_ms)
    res.e2e["compile_p99_ms"] = bl.tail_metric(compile_ms)
    res.timings["compile_ms"] = compile_ms


def scale_to_reference(res, calib_ms):
    """Scales the timed-phase metrics in SCALED to the reference host speed
    (see CALIB_REFERENCE_MS); the unscaled values are printed as info
    lines. A metric not computed yet is skipped: its caller builds it from
    parts already scaled."""
    calib = bl.median(calib_ms)
    res.info["calib_ms"] = calib
    res.timings["calib_ms"] = calib_ms
    for name, kind in SCALED.items():
        if name not in res.e2e:
            continue
        res.info["unscaled " + name] = res.e2e[name]
        res.e2e[name] = bl.to_reference(res.e2e[name], kind, calib,
                                        CALIB_REFERENCE_MS)


def share(counts):
    vec = counts.get("vectorizer.stmts_vectorized", 0)
    seq = counts.get("vectorizer.stmts_sequential", 0)
    return bl.ratio(vec, vec + seq)


def overhead_by_pass(series, programs, forms=("loop", "vec")):
    """Traced runs alternate untraced (even) and traced (odd) passes; the
    overhead is the geomean ratio of traced to untraced per-program
    medians, minus one."""
    ratios = []
    for p in programs:
        for form in forms:
            values = series.get(f"run.{form}.{p}", [])
            plain, traced = values[0::2], values[1::2]
            if plain and traced:
                ratios.append(bl.median(traced) / bl.median(plain))
    return bl.geomean(ratios) - 1 if ratios else 0.0


def setups(engine, res, timeout):
    """setup_s: the median set-up, each scaled by the calibration taken
    right after it."""
    times, scaled = [], []
    for _ in range(SETUP_REPEATS):
        reply = engine.send("setup", timeout)
        times.append(reply["setup_s"])
        scaled.append(bl.to_reference(reply["setup_s"], "time",
                                      reply["calib_ms"], CALIB_REFERENCE_MS))
        res.absorb(reply)
        res.info["simd_level"] = reply["simd_level"]
    res.e2e["setup_s"] = bl.median(scaled)
    res.info["unscaled setup_s"] = bl.median(times)
    res.timings["setup_s"] = [t * 1000 for t in times]


def simd_layer(res, simd):
    for k in SIMD_KERNELS:
        res.layer[f"simd.calls.{k}"] = simd.get(k, 0)


def run_compile_stream(engine, res, seconds, trace):
    reply = engine.send(f"run {seconds:.3f} {trace}", seconds + 120)
    res.absorb(reply)
    s, c = reply["series"], reply["counts"]
    res.attempted, res.failed = reply["attempted"], reply["failed"]
    res.rejected = reply["rejected"]
    compile_metrics(res, s["compile_ms"])
    res.e2e["validated_scripts_per_s"] = bl.rate(s["e2e_ms"])
    res.e2e["vectorized_stmt_share"] = share(c)
    corpus = sorted({k.split(".", 2)[2] for k in s if k.startswith("run.")})
    run_geomeans(res, s, corpus)
    res.timings["script_ms"] = s["e2e_ms"]
    res.timings["validate_ms"] = s["validate_ms"]
    res.info["passes"] = c["passes"]
    scale_to_reference(res, s["calib_ms"])
    res.info["cost-on scripts"] = c.get("scripts.cost_on")
    apply_counts(res, c)
    program_rows(res, s)
    simd_layer(res, reply["simd"])
    if trace:
        apply_spans(res, reply["spans"])
        traced = s.get("e2e_traced_ms", [])
        if traced:
            res.layer["tracing.overhead_frac"] = (
                bl.median(traced) / bl.median(s["e2e_ms"]) - 1)
        daemon_layers(engine, res)


class DaemonPort:
    """Sends commands to the daemon living beside the workload in the same
    engine process."""

    def __init__(self, engine):
        self.engine = engine

    def send(self, line, timeout):
        return self.engine.send("daemon " + line, timeout)


def daemon_layers(engine, res):
    """The traced run's daemon phase: open-loop traffic against an
    in-process daemon, then against one re-booted with isolation=process,
    for the per-layer metrics of the daemon, service, DiskStore and
    sandbox layers (see README.md)."""
    port = DaemonPort(engine)
    res.absorb(port.send("setup", 120))
    traffic(port, res, DAEMON_RATE, WARMUP_S, 0)
    before = port.send("stats", 30)["stats"]
    plain = traffic(port, res, DAEMON_RATE, DAEMON_STEP_S, 0)
    traced = traffic(port, res, DAEMON_RATE, DAEMON_STEP_S, 1)
    diff = bl.stats_diff(before, port.send("stats", 30)["stats"])
    apply_spans(res, traced["spans"])
    stats_layer(res, diff)
    res.layer["generator.late_p99_ms"] = bl.tail_metric(
        plain["series"]["late_ms"])
    for step in (plain, traced):
        res.attempted += step["attempted"]
        res.failed += step["failed"]
    # Every body served so far against the library pipeline's output.
    res.absorb(port.send("verify", 150))
    sandbox_phase(port, res)


def run_paper_kernels(engine, res, seconds, trace):
    reply = engine.send(f"run {seconds:.3f} {trace}", seconds + 150)
    res.absorb(reply)
    s, c = reply["series"], reply["counts"]
    res.attempted, res.failed = reply["attempted"], reply["failed"]
    compile_metrics(res, s["compile_ms"])
    # Eight programs of different compile cost: the pooled median would
    # jump between two programs' times, so the median is per program.
    res.e2e["compile_p50_ms"] = bl.geomean(
        bl.median(s[f"compile.{p}"]) for p in PAPER_PROGRAMS)
    run_geomeans(res, s, PAPER_PROGRAMS)
    res.e2e["vectorized_stmt_share"] = share(c)
    res.info["passes"] = c["passes"]
    scale_to_reference(res, s["calib_ms"])
    # Validating one program = vectorize it, run both forms, compare; the
    # rate is at the geomean program cost, like the run-time metrics, and
    # is built from parts already at the reference speed.
    res.e2e["validated_scripts_per_s"] = 1000 / bl.geomean(
        res.e2e["compile_p50_ms"]
        + bl.median(at_reference(s, f"run.loop.{p}"))
        + bl.median(at_reference(s, f"run.vec.{p}")) for p in PAPER_PROGRAMS)
    speedups(res, s, PAPER_PROGRAMS)
    apply_counts(res, c)
    program_rows(res, s)
    simd_layer(res, reply["simd"])
    if trace:
        apply_spans(res, reply["spans"])
        res.layer["tracing.overhead_frac"] = overhead_by_pass(
            s, PAPER_PROGRAMS)
        daemon_layers(engine, res)


def traffic(engine, res, offered, seconds, trace):
    reply = engine.send(f"traffic {offered:.3f} {seconds:.3f} {trace}",
                        seconds + 60)
    res.absorb(reply)
    return reply


def sandbox_phase(engine, res):
    """The traced run's sandbox hop: the same traffic against a daemon
    re-booted with isolation=process, for the sandbox layer's metrics."""
    engine.send("isolation process", 120)
    traffic(engine, res, SANDBOX_RATE, WARMUP_S, 0)
    before = engine.send("stats", 30)["stats"]
    step = traffic(engine, res, SANDBOX_RATE, SANDBOX_STEP_S, 1)
    diff = bl.stats_diff(before, engine.send("stats", 30)["stats"])
    hits = span_durations(step["spans"]).get("daemon.memory_hit", [])
    if hits:
        res.layer["sandbox.memory_hit_p50_ms"] = bl.median(hits)
    res.layer["sandbox.crashes"] = bl.shard_sum(diff, "sandbox", "crashes")
    res.layer["sandbox.respawns"] = bl.shard_sum(diff, "sandbox", "respawns")
    res.attempted += step["attempted"]
    res.failed += step["failed"]


def stats_layer(res, diff):
    res.layer["service.queue_ms"] = bl.hist_mean_ms(diff, "queue")
    res.layer["service.vectorize_ms"] = bl.hist_mean_ms(diff, "vectorize")
    res.layer["service.validate_ms"] = bl.hist_mean_ms(diff, "validate")
    hits = bl.shard_sum(diff, "cache", "hits")
    misses = bl.shard_sum(diff, "cache", "misses")
    res.layer["service.cache_hit_ratio"] = bl.ratio(hits, hits + misses)
    store = diff["daemon"]["disk_store"]
    res.layer["diskstore.hit_ratio"] = bl.ratio(
        store["hits"], store["hits"] + store["misses"])
    res.layer["daemon.shed"] = (diff["daemon"]["shed_qos"]
                                + diff["daemon"]["shed_queue"])


def run_workload(workload, seed, seconds, trace):
    res = Result()
    workdir = os.path.join(BUILD, "run", f"{workload}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    engine = Engine(workload, seed, workdir)
    try:
        setups(engine, res, 120)
        if workload == "compile-stream":
            run_compile_stream(engine, res, seconds, trace)
        else:
            run_paper_kernels(engine, res, seconds, trace)
    finally:
        engine.close()
        shutil.rmtree(workdir, ignore_errors=True)
    res.e2e["peak_rss_mb"] = res.peak_rss_kb / 1024.0
    res.e2e["ok_frac"] = 1.0 - bl.ratio(res.failed, res.attempted)
    return res


def stamp(seed, res):
    level = res.info.get("simd_level", "unknown")
    kind = build_type()
    return {
        "host": platform.node(),
        "nproc": os.cpu_count(),
        "commit": source_identity(),
        "build_type": kind,
        "simd_level": level,
        "seed": seed,
        "comparable": kind == "Release",
    }


def report(workload, seed, trace, res):
    st = stamp(seed, res)
    log(f"== {workload} seed={seed} trace={trace}")
    log("   " + " ".join(f"{k}={v}" for k, v in st.items()))
    if not st["comparable"]:
        log("   WARNING: not a Release build; numbers are not comparable")
    log(f"   attempted={res.attempted} failed={res.failed} "
        f"rejected={res.rejected} violations={len(res.violations)}")
    for v in res.violations[:20]:
        log(f"   VIOLATION: {v}")
    for name, values in res.timings.items():
        sm = bl.summarize(values)
        tail = (f"p{sm['tail_q'] * 100:g}={sm['tail']:.4f}"
                if sm["tail_q"] else "tail=n/a")
        log(f"   timing {name}: p50={sm['p50']:.4f} {tail} ms n={sm['n']}")
    for k, v in res.info.items():
        log(f"   info {k}: {v}")
    table = END_TO_END if not trace else PER_LAYER
    values = res.e2e if not trace else res.layer
    for name, unit in table:
        log(f"   {name} = {values[name]:.6g} {unit}")
    record = {"workload": workload, "trace": trace, "stamp": st,
              "end_to_end": res.e2e, "per_layer": res.layer,
              "attempted": res.attempted, "failed": res.failed,
              "rejected": res.rejected, "violations": res.violations,
              "info": res.info}
    outdir = os.path.join(BUILD, "results")
    os.makedirs(outdir, exist_ok=True)
    with open(os.path.join(outdir, f"{workload}-seed{seed}-trace{trace}.json"),
              "w") as f:
        json.dump(record, f, indent=1, default=str)
    return {name: {"value": values[name], "unit": unit}
            for name, unit in table}


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        todo = [args.workload] if args.workload else list(WORKLOADS)
        results = {w: run_workload(w, args.seed, args.seconds, args.trace)
                   for w in todo}
    except (EngineError, subprocess.SubprocessError, OSError, KeyError,
            ValueError) as e:
        sys.stderr.write(f"perfbench: {e}\n")
        return 2
    metrics = {}
    for w, res in results.items():
        m = report(w, args.seed, args.trace, res)
        if args.workload:
            metrics = m
        else:
            metrics.update({f"{w}.{k}": v for k, v in m.items()})
    correct = all(not r.violations for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r.attempted for r in results.values()),
        "failed": sum(r.failed for r in results.values()),
        "metrics": metrics,
    }), flush=True)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
