"""Per-layer metrics derived from the spans written by tracer.py.

A span's self time is its duration minus the durations of its direct
children.  A layer's self time sums the self time of its spans, including
the `<layer>.import` span of its module body.  Counts come from the counters
recorded at the same boundaries; `finact.pullback_pair_space` is computed
from the arguments (|A| * |B| summed over pullbacks), not observed.
"""
from __future__ import annotations

import json
from array import array

LAYERS = ("groups", "finact", "calib", "spans", "completion", "poly", "mackey",
          "tambara", "workspace", "cli", "suites", "sampling", "report", "semirings",
          "util_linear")

# metric name -> (unit, better); the trace run also adds cli.process_start_s
# and the trace.* overhead figures.
PER_LAYER = {
    **{f"{layer}.self_s": ("s", "lower") for layer in LAYERS},
    "groups.subgroups.calls": ("count", "lower"),
    "groups.subgroups.repeat_ratio": ("ratio", "lower"),
    "groups.subgroups_found": ("count", "lower"),
    "mackey.atoms.calls": ("count", "lower"),
    "mackey.atoms.repeat_ratio": ("ratio", "lower"),
    "mackey.atom_slice.calls": ("count", "lower"),
    "mackey.burnside_table.self_s": ("s", "lower"),
    "mackey.bruteforce.self_s": ("s", "lower"),
    "finact.pullback.self_s": ("s", "lower"),
    "finact.pullback_pair_space": ("count", "lower"),
    "finact.pullback_points": ("count", "lower"),
    "finact.build_gset.self_s": ("s", "lower"),
    "finact.points_built": ("count", "lower"),
    "finact.pi.self_s": ("s", "lower"),
    "finact.pi_sections": ("count", "lower"),
    "finact.iso_search.calls": ("count", "lower"),
    "finact.iso_found_ratio": ("ratio", "higher"),
    "poly.rules_fired": ("count", "lower"),
    "poly.distribute.calls": ("count", "lower"),
    "spans.iso.calls": ("count", "lower"),
    "workspace.load_s": ("s", "lower"),
    "workspace.builtin_s": ("s", "lower"),
    "workspace.dump_s": ("s", "lower"),
    "workspace.bytes_out": ("B", "lower"),
    "cli.process_start_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.overhead_ratio": ("ratio", "lower"),
    "trace.spans": ("count", "lower"),
}

# sub-layer self times: metric -> span names whose self time it sums
SELF_TIMES = {
    "mackey.burnside_table.self_s": ("mackey.burnside_table",),
    "mackey.bruteforce.self_s": ("mackey.burnside_table_bruteforce",),
    "finact.pullback.self_s": ("finact.Pullback", "finact.pullback"),
    "finact.build_gset.self_s": ("finact.build_gset",),
    "finact.pi.self_s": ("finact.PiData", "finact.pi", "finact.pi_slice"),
}
CALLS = {
    "groups.subgroups.calls": ("groups.subgroups",),
    "mackey.atoms.calls": ("mackey.atoms",),
    "mackey.atom_slice.calls": ("mackey.atom_slice",),
    "finact.iso_search.calls": ("finact.iso_gsets", "finact.slice_iso"),
    "poly.distribute.calls": ("poly.distribute",),
    "spans.iso.calls": ("spans.span_iso",),
}
INCLUSIVE = {
    "workspace.builtin_s": ("workspace.builtin_workspace",),
    "workspace.dump_s": ("workspace.dump_json",),
}


def _load(path: str):
    with open(path + ".json", encoding="utf-8") as fh:
        meta = json.load(fh)
    n = meta["n"]
    arrays = [array("i"), array("i"), array("d"), array("d")]
    with open(path + ".bin", "rb") as fh:
        for arr in arrays:
            arr.fromfile(fh, n)
    return meta, arrays


def layer_metrics(paths: list[str]) -> dict[str, tuple[float, str]]:
    """Sum spans and counters over every traced process; metric -> (value, unit)."""
    self_s: dict[str, float] = {}
    incl_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    counters: dict[str, float] = {}
    load_s = 0.0
    spans = 0
    for path in paths:
        meta, (name, parent, start, end) = _load(path)
        names = meta["names"]
        for k, v in meta["counters"].items():
            counters[k] = counters.get(k, 0) + v
        n = meta["n"]
        spans += n
        child = [0.0] * n
        for i in range(n):
            if parent[i] >= 0:
                child[parent[i]] += end[i] - start[i]
        load_entries = names.index("workspace.load_entries") if "workspace.load_entries" in names else -2
        for i in range(n):
            nm = names[name[i]]
            dur = end[i] - start[i]
            self_s[nm] = self_s.get(nm, 0.0) + dur - child[i]
            incl_s[nm] = incl_s.get(nm, 0.0) + dur
            calls[nm] = calls.get(nm, 0) + 1
            # getting a workspace: load_dir, or the builtin one when nothing is loaded
            if nm == "workspace.load_dir" or (
                    nm == "workspace.builtin_workspace"
                    and (parent[i] < 0 or name[parent[i]] != load_entries)):
                load_s += dur

    def total(table: dict, keys) -> float:
        return sum(table.get(k, 0) for k in keys)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = (sum(v for k, v in self_s.items()
                                      if k.split(".", 1)[0] == layer), "s")
    for metric, keys in SELF_TIMES.items():
        out[metric] = (total(self_s, keys), "s")
    for metric, keys in CALLS.items():
        out[metric] = (total(calls, keys), "count")
    for metric, keys in INCLUSIVE.items():
        out[metric] = (total(incl_s, keys), "s")
    out["workspace.load_s"] = (load_s, "s")
    out["groups.subgroups.repeat_ratio"] = (
        ratio(counters.get("groups.subgroups.repeats", 0), calls.get("groups.subgroups", 0)), "ratio")
    out["mackey.atoms.repeat_ratio"] = (
        ratio(counters.get("mackey.atoms.repeats", 0), calls.get("mackey.atoms", 0)), "ratio")
    out["finact.iso_found_ratio"] = (
        ratio(counters.get("finact.iso_search.found", 0), out["finact.iso_search.calls"][0]), "ratio")
    for metric in ("groups.subgroups_found", "finact.pullback_pair_space", "finact.pullback_points",
                   "finact.points_built", "finact.pi_sections", "poly.rules_fired"):
        out[metric] = (counters.get(metric, 0), "count")
    out["workspace.bytes_out"] = (counters.get("workspace.bytes_out", 0), "B")
    out["trace.spans"] = (spans, "count")
    return out
