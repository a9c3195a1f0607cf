"""SVG Gantt rendering of a simulated trace.

One horizontal lane per machine, one rectangle per trace event (jobs,
idle fills, maintenance), a dashed vertical line per rescheduling
point.  The x axis is linear in simulated time: at the default scale of
one user unit per time unit, a block's width attribute equals its
duration, which keeps the output auditable by eye and by test.
"""

from __future__ import annotations

from .model import InvalidOptionError

GANTT_TAG = "<!-- reworkopt-gantt v1 -->"

_FILL = {
    "job": "#4c78a8",
    "rework": "#72b7b2",
    "bad": "#e45756",
    "idle": "#d8d8d8",
    "pm": "#59a14f",
    "cm": "#b10318",
}

_ROW_H = 28
_BLOCK_H = 18
_PAD_L = 70
_PAD_T = 20
_PAD_B = 30


def _n(x: float) -> str:
    # trim float noise in coordinates but keep exact short values exact
    s = repr(round(float(x), 6))
    return s[:-2] if s.endswith(".0") else s


def _rect(cls, x, y, w, h, fill, title=None):
    body = '<rect class="%s" x="%s" y="%s" width="%s" height="%s" fill="%s"' % (
        cls, _n(x), _n(y), _n(w), _n(h), fill)
    if title is None:
        return body + "/>"
    return body + "><title>%s</title></rect>" % title


def export_gantt(trace, path=None, scale: float = 1.0) -> str:
    """Render the trace; returns the SVG text, optionally writing it."""
    if not 0.0 < scale < float("inf"):
        raise InvalidOptionError(f"scale must be finite and positive, got {scale!r}")
    mids = sorted(trace.final_states)
    row_of = {mid: i for i, mid in enumerate(mids)}

    span = trace.makespan
    for ev in trace.maint_events:
        span = max(span, ev.time + ev.duration)
    for ev in trace.idle_events:
        span = max(span, ev.start + ev.duration)
    width = _PAD_L + span * scale + 20
    height = _PAD_T + len(mids) * _ROW_H + _PAD_B

    def x_of(t):
        return _PAD_L + t * scale

    def y_of(mid):
        return _PAD_T + row_of[mid] * _ROW_H + (_ROW_H - _BLOCK_H) / 2

    out = [GANTT_TAG]
    out.append('<svg xmlns="http://www.w3.org/2000/svg" width="%s" height="%s" '
               'font-family="sans-serif" font-size="11">' % (_n(width), _n(height)))
    for mid in mids:
        y = _PAD_T + row_of[mid] * _ROW_H
        out.append('<text x="4" y="%s">machine %d</text>' % (_n(y + _ROW_H / 2 + 4), mid))
        out.append('<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#cccccc"/>' % (
            _n(_PAD_L), _n(y + _ROW_H), _n(width - 10), _n(y + _ROW_H)))
    for ev in trace.job_events:
        if ev.qualified:
            cls, fill = ("job rework", _FILL["rework"]) if ev.origin is not None else ("job", _FILL["job"])
        else:
            cls, fill = "job bad", _FILL["bad"]
        title = "job %d (type %d) %s-%s" % (ev.job_id, ev.type, _n(ev.start), _n(ev.completion))
        out.append(_rect(cls, x_of(ev.start), y_of(ev.machine_id),
                         ev.duration * scale, _BLOCK_H, fill, title))
    for ev in trace.idle_events:
        out.append(_rect("idle", x_of(ev.start), y_of(ev.machine_id),
                         ev.duration * scale, _BLOCK_H, _FILL["idle"],
                         "idle slot %d" % ev.slot))
    for ev in trace.maint_events:
        fill = _FILL[ev.kind]
        title = "%s %s-%s" % (ev.kind, _n(ev.time), _n(ev.time + ev.duration))
        out.append(_rect(ev.kind, x_of(ev.time), y_of(ev.machine_id),
                         ev.duration * scale, _BLOCK_H, fill, title))
    for pt in trace.resched_points:
        x = x_of(pt.time)
        out.append('<line class="resched" x1="%s" y1="%s" x2="%s" y2="%s" '
                   'stroke="#222222" stroke-dasharray="4,3"/>' % (
                       _n(x), _n(_PAD_T - 6), _n(x), _n(_PAD_T + len(mids) * _ROW_H + 6)))
    axis_y = _PAD_T + len(mids) * _ROW_H + 12
    out.append('<text x="%s" y="%s">t=0</text>' % (_n(_PAD_L), _n(axis_y)))
    out.append('<text x="%s" y="%s">t=%s</text>' % (_n(x_of(span)), _n(axis_y), _n(span)))
    out.append("</svg>")
    text = "\n".join(out) + "\n"
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text)
    return text
