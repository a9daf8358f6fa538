"""Deterministic report rendering.

A Report is an ordered sequence of sections, each an ordered list of
key/value pairs. Rendering is byte-stable: identical inputs, seed and
version produce identical bytes. Values are rendered through a single
canonical formatter (sorted dicts, exact scalars as strings, no floats).
"""

import hashlib

from . import __version__


def _fmt(value):
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    if isinstance(value, dict):
        items = sorted(value.items(), key=lambda kv: str(kv[0]))
        return "{" + ", ".join(f"{_fmt(k)}: {_fmt(v)}" for k, v in items) + "}"
    return str(value)


class Report:
    def __init__(self, title, input_text=None, seed=None, field=None):
        self.title = title
        self.sections = []
        self._current = None
        self.header = [("tool", f"quiverext {__version__}")]
        if input_text is not None:
            digest = hashlib.sha256(input_text.encode("utf-8")).hexdigest()
            self.header.append(("input-digest", f"sha256:{digest}"))
        if seed is not None:
            self.header.append(("seed", str(seed)))
        if field is not None:
            self.header.append(("field", repr(field)))

    def section(self, name):
        self._current = (name, [])
        self.sections.append(self._current)
        return self

    def add(self, key, value):
        if self._current is None:
            self.section("main")
        self._current[1].append((key, _fmt(value)))
        return self

    def render_machine(self):
        lines = [f"report = {self.title}"]
        for k, v in self.header:
            lines.append(f"{k} = {v}")
        for name, pairs in self.sections:
            for k, v in pairs:
                lines.append(f"{name}.{k} = {v}")
        return "\n".join(lines) + "\n"

    def render_human(self):
        lines = [f"== {self.title} =="]
        for k, v in self.header:
            lines.append(f"{k}: {v}")
        for name, pairs in self.sections:
            lines.append("")
            lines.append(f"[{name}]")
            width = max((len(k) for k, _ in pairs), default=0)
            for k, v in pairs:
                lines.append(f"  {k.ljust(width)}  {v}")
        return "\n".join(lines) + "\n"

    def render(self, machine=False):
        return self.render_machine() if machine else self.render_human()


def verdict_fields(report, prefix, verdict):
    """Standard rendering of a Verdict into a report section."""
    report.add(f"{prefix}", verdict.status)
    if verdict.value is not None:
        report.add(f"{prefix}.value", verdict.value)
    if verdict.bound is not None:
        report.add(f"{prefix}.bound", verdict.bound)
    for k in sorted(verdict.certificate, key=str):
        report.add(f"{prefix}.{k}", verdict.certificate[k])
    return report
