"""Versioned on-disk formats: instances, archives, manifests, reports.

Every file starts with a one-line schema tag so readers can refuse
unknown versions.  Floats are written with repr(), which round-trips
exactly, and all iteration orders are fixed, so writing the same data
twice produces the same bytes.  Nothing here records wall-clock time.
"""

from __future__ import annotations

import json
import os
from dataclasses import fields

from .model import (
    GlobalParams,
    Job,
    MachineParams,
    ProblemInstance,
    QualitySpec,
    require_valid,
)

INSTANCE_TAG = "# reworkopt-instance v1"
ARCHIVE_TAG = "# reworkopt-archive v1"
MANIFEST_TAG = "# reworkopt-manifest v1"
REPORT_TAG = "# reworkopt-report v1"
SUMMARY_TAG = "# reworkopt-summary v1"


class FormatError(ValueError):
    """File does not carry the expected schema tag or is malformed."""


def _f(x) -> str:
    return repr(float(x))


def _check_tag(lines, tag, path):
    if not lines or lines[0].strip() != tag:
        raise FormatError("%s: expected tag %r on line 1" % (path, tag))


# ---------------------------------------------------------------- instances

def dump_instance(inst: ProblemInstance) -> str:
    """Render an instance as structured text.

    Times are in the instance's own time unit, wear is dimensionless,
    costs are in currency units; the section layout keeps one scalar per
    line so diffs stay readable.
    """
    out = [INSTANCE_TAG]
    out.append("# time units: processing/maintenance durations; wear: dimensionless; cost: currency")
    _record(out, "[globals]", inst.globals)
    for m in inst.machines:
        _record(out, "[machine %d]" % m.id, m)
    for jtype in sorted(inst.quality):
        _record(out, "[quality %d]" % jtype, inst.quality[jtype])
    for j in inst.jobs:
        out.append("")
        out.append("[job %d]" % j.id)
        out.append("type = %d" % j.type)
        out.append("origin = %s" % ("none" if j.origin is None else str(j.origin)))
        for mid in sorted(j.nominal_times):
            out.append("nominal %d = %s" % (mid, _f(j.nominal_times[mid])))
    for jtype in sorted(inst.idle_nominal):
        out.append("")
        out.append("[idle %d]" % jtype)
        for mid in sorted(inst.idle_nominal[jtype]):
            out.append("nominal %d = %s" % (mid, _f(inst.idle_nominal[jtype][mid])))
    if inst.meta:
        out.append("")
        out.append("[meta]")
        for key in sorted(inst.meta):
            out.append("%s = %s" % (key, json.dumps(inst.meta[key])))
    out.append("")
    return "\n".join(out)


def _record(out: list[str], head: str, record) -> None:
    """A parameter record's section: one line per field in declaration
    order, except a machine's id, which is the section's number."""
    out += ["", head]
    for f in fields(record):
        if f.name != "id":
            out.append("%s = %s" % (f.name, _f(getattr(record, f.name))))


def save_instance(inst: ProblemInstance, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_instance(inst))


def parse_instance(text: str, path="<string>") -> ProblemInstance:
    """Read an instance; anything malformed raises FormatError."""
    try:
        return _parse_instance(text, path)
    except FormatError:
        raise
    except (TypeError, KeyError, IndexError, ValueError) as exc:
        raise FormatError("%s: malformed instance: %s" % (path, exc)) from exc


def _parse_instance(text: str, path) -> ProblemInstance:
    lines = text.splitlines()
    _check_tag(lines, INSTANCE_TAG, path)
    section = None
    # parameter records by section name: (number, {field: value}) in order
    records: dict[str, list[tuple[int | None, dict]]] = {
        "globals": [(None, {})], "machine": [], "quality": []}
    jobs: list[dict] = []
    idle: dict[int, dict[int, float]] = {}
    meta: dict = {}
    for raw in lines[1:]:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("["):
            head = line.strip("[]").split()
            section = head[0]
            if section in ("machine", "quality"):
                records[section].append((int(head[1]), {}))
            elif section == "job":
                jobs.append({"id": int(head[1]), "nominal_times": {}, "origin": None})
            elif section == "idle":
                idle[int(head[1])] = {}
                idle_type = int(head[1])
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if section in records:
            records[section][-1][1][key] = float(value)
        elif section == "job":
            if key == "type":
                jobs[-1]["type"] = int(value)
            elif key == "origin":
                jobs[-1]["origin"] = None if value == "none" else int(value)
            elif key.startswith("nominal"):
                jobs[-1]["nominal_times"][int(key.split()[1])] = float(value)
            else:
                raise FormatError("%s: unknown job field %r" % (path, key))
        elif section == "idle":
            idle[idle_type][int(key.split()[1])] = float(value)
        elif section == "meta":
            meta[key] = json.loads(value)
        else:
            raise FormatError("%s: stray line %r" % (path, raw))
    inst = ProblemInstance(
        jobs=[Job(j["id"], j["type"], j["nominal_times"], j["origin"]) for j in jobs],
        machines=[MachineParams(mid, **kv) for mid, kv in records["machine"]],
        quality={t: QualitySpec(**kv) for t, kv in records["quality"]},
        globals=GlobalParams(**records["globals"][0][1]),
        idle_nominal=idle,
        meta=meta,
    )
    return inst


def load_instance(path) -> ProblemInstance:
    """Read and validate an instance file (InvalidInstanceError names
    every violated invariant)."""
    with open(path) as fh:
        return require_valid(parse_instance(fh.read(), path))


# ------------------------------------------------------------------ archive

ARCHIVE_HEADER = "seed\tc_max\tmaint_cost\tdigest"


def dump_archive(rows) -> str:
    """Rows are (seed, c_max, maint_cost, digest); output sorted by c_max."""
    out = [ARCHIVE_TAG, ARCHIVE_HEADER]
    ordered = sorted(rows, key=lambda r: (r[1], r[2], r[0], r[3]))
    for seed, cmax, cost, digest in ordered:
        out.append("%d\t%s\t%s\t%s" % (seed, _f(cmax), _f(cost), digest))
    out.append("")
    return "\n".join(out)


def save_archive(rows, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_archive(rows))


def parse_archive(text: str, path="<string>"):
    lines = text.splitlines()
    _check_tag(lines, ARCHIVE_TAG, path)
    if len(lines) < 2 or lines[1] != ARCHIVE_HEADER:
        raise FormatError("%s: bad archive header" % path)
    rows = []
    for raw in lines[2:]:
        if not raw.strip():
            continue
        seed, cmax, cost, digest = raw.split("\t")
        rows.append((int(seed), float(cmax), float(cost), digest))
    return rows


def load_archive(path):
    with open(path) as fh:
        return parse_archive(fh.read(), path)


# ----------------------------------------------------------------- manifest

def dump_manifest(payload: dict) -> str:
    return MANIFEST_TAG + "\n" + json.dumps(payload, sort_keys=True, indent=2) + "\n"


def save_manifest(payload: dict, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_manifest(payload))


def load_manifest(path) -> dict:
    with open(path) as fh:
        lines = fh.read().splitlines()
    _check_tag(lines, MANIFEST_TAG, path)
    return json.loads("\n".join(lines[1:]))


# ------------------------------------------------------------------- report

def dump_report(per_seed, aggregate: dict) -> str:
    """per_seed: list of (seed, hv, igd, rpd); aggregate: name -> value."""
    out = [REPORT_TAG, "seed\thv\tigd\trpd"]
    for seed, hv, igd, rpd in sorted(per_seed):
        out.append("%d\t%s\t%s\t%s" % (seed, _f(hv), _f(igd), _f(rpd)))
    out.append("")
    for key in sorted(aggregate):
        out.append("%s = %s" % (key, _f(aggregate[key])))
    out.append("")
    return "\n".join(out)


def save_report(per_seed, aggregate, path) -> None:
    with open(path, "w") as fh:
        fh.write(dump_report(per_seed, aggregate))


def parse_report(text: str, path="<string>"):
    lines = text.splitlines()
    _check_tag(lines, REPORT_TAG, path)
    per_seed = []
    aggregate = {}
    for raw in lines[2:]:
        line = raw.strip()
        if not line:
            continue
        if "=" in line:
            key, _, value = line.partition("=")
            aggregate[key.strip()] = float(value)
        else:
            seed, hv, igd, rpd = line.split("\t")
            per_seed.append((int(seed), float(hv), float(igd), float(rpd)))
    return per_seed, aggregate


def load_report(path):
    with open(path) as fh:
        return parse_report(fh.read(), path)


def ensure_dir(path) -> None:
    os.makedirs(path, exist_ok=True)
