#!/usr/bin/env python3
"""Validate generated JSON artifacts.

Default mode compares a freshly generated BENCH_*.json against the
checked-in reference of the same bench. The reference file acts as the
schema: the generated file must contain exactly the same keys with the
same JSON shapes (objects, arrays, numbers, strings). Every number
must be finite, and any field that names a ratio (speedup, *_ratio)
must be strictly positive — a NaN or zero there means the bench
silently divided by a failed measurement.

Two schema-pinned modes validate the live-telemetry artifacts:

  --telemetry FILE   a TelemetryPublisher snapshot dump / HTTP
                     /metrics.json body (schema "preempt.telemetry.v1"
                     with the sliding-window fields: window_sec /
                     window_epochs, per-counter window_rate_per_sec
                     and resets, per-gauge window_watermark, and
                     per-tenant "window" span blocks)
  --spans FILE       a tools/span_tool --json export
                     (schema "preempt.spans.v2")
  --prometheus FILE  a /metrics scrape (Prometheus text exposition):
                     every family has exactly one # TYPE line, and
                     all of its samples follow it in one contiguous
                     run (a summary's _sum/_count included); no
                     sample repeats a label name, and no family mixes
                     tenant-labelled samples with unlabelled ones (a
                     sum over the family would count a tenant twice)

A third pinned mode validates the admission-control overload sweep:

  --admission FILE [--strict]
                     a bench/fig_admission --out file. Schema always;
                     --strict (used on the checked-in
                     BENCH_admission.json, i.e. a full-length run)
                     additionally enforces the acceptance bars: LC p99
                     with the policy ON at least 5x lower than OFF on
                     every overloaded point, admitted-BE throughput
                     degrading monotonically to a floor above 20% of
                     its knee.

Usage: check_bench_json.py GENERATED REFERENCE
       check_bench_json.py --telemetry FILE
       check_bench_json.py --spans FILE
       check_bench_json.py --prometheus FILE
       check_bench_json.py --admission FILE [--strict]
"""

import json
import math
import re
import sys


def fail(path, msg):
    raise SystemExit(f"schema check failed at {path or '<root>'}: {msg}")


def is_ratio_key(key):
    return key == "speedup" or key.endswith("_speedup") or \
        key.endswith("_ratio")


def check(gen, ref, path="", key=""):
    if isinstance(ref, dict):
        if not isinstance(gen, dict):
            fail(path, f"expected object, got {type(gen).__name__}")
        missing = sorted(ref.keys() - gen.keys())
        extra = sorted(gen.keys() - ref.keys())
        if missing:
            fail(path, f"missing keys {missing}")
        if extra:
            fail(path, f"unexpected keys {extra}")
        for k in ref:
            check(gen[k], ref[k], f"{path}.{k}" if path else k, k)
    elif isinstance(ref, list):
        if not isinstance(gen, list):
            fail(path, f"expected array, got {type(gen).__name__}")
        if not gen:
            fail(path, "array is empty")
        # Arrays are homogeneous: validate every element against the
        # reference's first element.
        for i, item in enumerate(gen):
            check(item, ref[0], f"{path}[{i}]", key)
    elif isinstance(ref, bool):
        if not isinstance(gen, bool):
            fail(path, f"expected bool, got {type(gen).__name__}")
    elif isinstance(ref, (int, float)):
        if isinstance(gen, bool) or not isinstance(gen, (int, float)):
            fail(path, f"expected number, got {type(gen).__name__}")
        if not math.isfinite(gen):
            fail(path, f"non-finite number {gen}")
        if is_ratio_key(key) and gen <= 0:
            fail(path, f"ratio must be > 0, got {gen}")
    elif isinstance(ref, str):
        if not isinstance(gen, str):
            fail(path, f"expected string, got {type(gen).__name__}")
    elif ref is None:
        if gen is not None:
            fail(path, f"expected null, got {type(gen).__name__}")
    else:
        fail(path, f"unhandled reference type {type(ref).__name__}")


def expect(obj, path, keys_types):
    """Require obj to be a dict carrying exactly typed keys."""
    if not isinstance(obj, dict):
        fail(path, f"expected object, got {type(obj).__name__}")
    for k, types in keys_types.items():
        if k not in obj:
            fail(path, f"missing key '{k}'")
        v = obj[k]
        if isinstance(v, bool) or not isinstance(v, types):
            fail(f"{path}.{k}",
                 f"expected {types}, got {type(v).__name__}")
        if isinstance(v, (int, float)) and not math.isfinite(v):
            fail(f"{path}.{k}", f"non-finite number {v}")


QUANTILES = {"count": int, "min": (int, float), "max": (int, float),
             "mean": (int, float), "p50": (int, float),
             "p90": (int, float), "p99": (int, float),
             "p999": (int, float)}


def check_quantiles(obj, path):
    expect(obj, path, QUANTILES)
    if obj["count"] > 0 and obj["min"] > obj["max"]:
        fail(path, f"min {obj['min']} > max {obj['max']}")


def check_telemetry(path):
    with open(path) as f:
        snap = json.load(f)
    expect(snap, "", {
        "schema": str, "seq": int, "wall_ns": int, "mono_ns": int,
        "uptime_sec": (int, float), "interval_sec": (int, float),
        "window_sec": (int, float), "window_epochs": int,
        "checksum": str, "counters": dict, "gauges": dict,
        "timers": dict, "spans": dict,
    })
    if snap["schema"] != "preempt.telemetry.v1":
        fail("schema", f"expected preempt.telemetry.v1, "
                       f"got '{snap['schema']}'")
    if snap["seq"] < 1:
        fail("seq", "snapshot was never published (seq < 1)")
    if snap["window_epochs"] < 1:
        fail("window_epochs", "window ring must hold >= 1 epoch")
    try:
        int(snap["checksum"], 16)
    except ValueError:
        fail("checksum", f"not a hex string: '{snap['checksum']}'")
    for name, c in snap["counters"].items():
        expect(c, f"counters.{name}",
               {"value": int, "rate_per_sec": (int, float),
                "window_rate_per_sec": (int, float), "resets": int})
        if c["value"] < 0:
            fail(f"counters.{name}.value", "counter went negative")
    for name, g in snap["gauges"].items():
        expect(g, f"gauges.{name}",
               {"value": int, "watermark": int,
                "window_watermark": int})
    for name, t in snap["timers"].items():
        check_quantiles(t, f"timers.{name}")
        if "window" not in t:
            fail(f"timers.{name}", "missing sliding-window stats")
        check_quantiles(t["window"], f"timers.{name}.window")
        if t["window"]["count"] > t["count"]:
            fail(f"timers.{name}.window",
                 "window count exceeds lifetime count")
    spans = snap["spans"]
    expect(spans, "spans", {"invariant_violations": int,
                            "anomalies": int, "tenants": dict})

    def check_breakdown(t, tpath):
        expect(t, tpath, {"completed": int, "cancelled": int,
                          "violations": int})
        for part in ("queued", "running", "preempted", "timer_lag",
                     "total"):
            if part not in t:
                fail(tpath, f"missing breakdown '{part}'")
            check_quantiles(t[part], f"{tpath}.{part}")

    for tenant, t in spans["tenants"].items():
        tpath = f"spans.tenants.{tenant}"
        check_breakdown(t, tpath)
        if "window" not in t:
            fail(tpath, "missing sliding-window breakdown")
        check_breakdown(t["window"], f"{tpath}.window")
        if t["window"]["completed"] > t["completed"]:
            fail(f"{tpath}.window",
                 "window completed exceeds lifetime completed")
    print(f"{path}: telemetry snapshot OK (seq={snap['seq']}, "
          f"{len(snap['counters'])} counters, "
          f"{len(snap['gauges'])} gauges, "
          f"{len(snap['timers'])} timers, "
          f"{len(spans['tenants'])} tenants)")


def check_spans(path):
    with open(path) as f:
        doc = json.load(f)
    expect(doc, "", {"schema": str, "spans": int, "window_us": int,
                     "invariant_violations": int, "slo_violations": int,
                     "anomalies": dict, "tenants": dict})
    if doc["schema"] != "preempt.spans.v2":
        fail("schema",
             f"expected preempt.spans.v2, got '{doc['schema']}'")
    expect(doc["anomalies"], "anomalies",
           {"orphan_events": int, "clamped_times": int,
            "reopened_tasks": int, "dangling_spans": int})
    if doc["invariant_violations"] != 0:
        fail("invariant_violations",
             f"{doc['invariant_violations']} spans failed "
             "queued+running+preempted+timer_lag == latency")
    total = 0
    for tenant, t in doc["tenants"].items():
        tpath = f"tenants.{tenant}"
        expect(t, tpath, {"completed": int, "cancelled": int,
                          "violations": int, "window": dict})
        for part in ("queued", "running", "preempted", "timer_lag",
                     "total"):
            if part not in t:
                fail(tpath, f"missing breakdown '{part}'")
            check_quantiles(t[part], f"{tpath}.{part}")
        w = t["window"]
        wpath = f"{tpath}.window"
        expect(w, wpath, {"completed": int, "cancelled": int,
                          "violations": int})
        for part in ("queued", "running", "preempted", "timer_lag",
                     "total"):
            if part not in w:
                fail(wpath, f"missing breakdown '{part}'")
            check_quantiles(w[part], f"{wpath}.{part}")
        if w["completed"] > t["completed"]:
            fail(wpath, "window completed exceeds lifetime completed")
        total += t["completed"] + t["cancelled"]
    if total != doc["spans"]:
        fail("tenants", f"per-tenant spans sum to {total}, "
                        f"top-level says {doc['spans']}")
    print(f"{path}: span export OK ({doc['spans']} spans, "
          f"{len(doc['tenants'])} tenants, 0 invariant violations)")


LABEL = re.compile(r'([a-zA-Z_][a-zA-Z0-9_]*)="((?:[^"\\\n]|\\.)*)",?')


def sample_labels(where, line):
    """The label names of one sample line, in order."""
    if "{" not in line.split(" ", 1)[0]:
        return []
    pos = line.index("{") + 1
    names = []
    while pos < len(line) and line[pos] != "}":
        m = LABEL.match(line, pos)
        if not m:
            fail(where, f"malformed labels in '{line}'")
        names.append(m.group(1))
        pos = m.end()
    if pos >= len(line):
        fail(where, f"unterminated labels in '{line}'")
    return names


def check_prometheus(path):
    types = {}
    current = None
    samples = 0
    tenanted = {}  # family -> {has a tenant label?}
    with open(path) as f:
        for lineno, line in enumerate(f, 1):
            line = line.rstrip("\n")
            where = f"{path}:{lineno}"
            if line.startswith("# TYPE "):
                fields = line.split()
                if len(fields) != 4:
                    fail(where, f"malformed TYPE line '{line}'")
                name = fields[2]
                if name in types:
                    fail(where, f"repeated # TYPE for family '{name}'")
                types[name] = fields[3]
                current = name
                continue
            if not line or line.startswith("#"):
                continue
            samples += 1
            name = line.split("{", 1)[0].split(" ", 1)[0]
            family = name
            if name not in types:
                for suffix in ("_sum", "_count"):
                    base = name[:-len(suffix)]
                    if name.endswith(suffix) and \
                            types.get(base) == "summary":
                        family = base
            if family != current:
                fail(where, f"sample '{name}' is outside the run of "
                            f"its family (current: '{current}')")
            labels = sample_labels(where, line)
            repeated = sorted({n for n in labels if labels.count(n) > 1})
            if repeated:
                fail(where, f"sample '{name}' repeats label(s) {repeated}")
            tenanted.setdefault(family, set()).add("tenant" in labels)
    if samples == 0:
        fail(path, "no samples")
    mixed = sorted(f for f, seen in tenanted.items() if len(seen) > 1)
    if mixed:
        fail(path, f"families with and without a tenant label: {mixed}")
    print(f"{path}: Prometheus exposition OK ({len(types)} families, "
          f"{samples} samples)")


ADMISSION_STATES = ("admit", "throttle", "shed_be", "shed_lc")


def check_admission(path, strict):
    with open(path) as f:
        doc = json.load(f)
    expect(doc, "", {
        "bench": str, "unit": str, "duration_ms": (int, float),
        "warmup_ms": (int, float), "overload_from_krps": (int, float),
        "lc_p99_min_off_on_ratio": (int, float),
        "be_floor_of_knee_ratio": (int, float), "results": list,
    })
    if doc["bench"] != "fig_admission":
        fail("bench", f"expected fig_admission, got '{doc['bench']}'")
    # expect() treats bools as non-numbers, so the flag is checked
    # by hand.
    if not isinstance(doc.get("be_admitted_monotone"), bool):
        fail("be_admitted_monotone", "expected bool")
    if not doc["results"]:
        fail("results", "array is empty")
    prev_krps = None
    overloaded = 0
    for i, r in enumerate(doc["results"]):
        rpath = f"results[{i}]"
        expect(r, rpath, {
            "krps": (int, float), "lc_p99_off_ns": int,
            "lc_p99_on_ns": int, "be_rps_off": (int, float),
            "be_rps_on": (int, float), "rejected_lc": int,
            "rejected_be": int, "state": str,
        })
        if r["state"] not in ADMISSION_STATES:
            fail(f"{rpath}.state", f"unknown state '{r['state']}'")
        if prev_krps is not None and r["krps"] <= prev_krps:
            fail(f"{rpath}.krps", "sweep loads must increase")
        prev_krps = r["krps"]
        if r["krps"] >= doc["overload_from_krps"]:
            overloaded += 1
    if overloaded == 0:
        fail("overload_from_krps", "no overloaded points in the sweep")
    if strict:
        ratio = doc["lc_p99_min_off_on_ratio"]
        if ratio < 5:
            fail("lc_p99_min_off_on_ratio",
                 f"admission must keep LC p99 >= 5x lower than the "
                 f"off leg on every overloaded point, got {ratio}")
        if not doc["be_admitted_monotone"]:
            fail("be_admitted_monotone",
                 "admitted-BE throughput regressed non-monotonically")
        floor = doc["be_floor_of_knee_ratio"]
        if floor <= 0.2:
            fail("be_floor_of_knee_ratio",
                 f"admitted-BE collapsed (floor {floor} of knee)")
        rejected = sum(r["rejected_lc"] + r["rejected_be"]
                       for r in doc["results"])
        if rejected == 0:
            fail("results", "overload shed nothing — policy inert?")
    mode = "strict acceptance" if strict else "schema"
    print(f"{path}: admission sweep {mode} OK "
          f"({len(doc['results'])} points, "
          f"min off/on ratio {doc['lc_p99_min_off_on_ratio']})")


def main():
    if sys.argv[1:2] == ["--admission"] and len(sys.argv) in (3, 4):
        if len(sys.argv) == 4 and sys.argv[3] != "--strict":
            raise SystemExit(__doc__)
        check_admission(sys.argv[2], strict=len(sys.argv) == 4)
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--telemetry":
        check_telemetry(sys.argv[2])
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--spans":
        check_spans(sys.argv[2])
        return
    if len(sys.argv) == 3 and sys.argv[1] == "--prometheus":
        check_prometheus(sys.argv[2])
        return
    if len(sys.argv) != 3:
        raise SystemExit(__doc__)
    generated, reference = sys.argv[1], sys.argv[2]
    with open(generated) as f:
        gen = json.load(f)
    with open(reference) as f:
        ref = json.load(f)
    check(gen, ref)
    bench = gen.get("bench", "?") if isinstance(gen, dict) else "?"
    print(f"{generated}: schema OK (bench={bench})")


if __name__ == "__main__":
    main()
