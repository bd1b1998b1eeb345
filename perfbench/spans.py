"""In-memory span recorder for the traced benchmark run.

A span is (name, start_ns, end_ns, parent, request): ``parent`` is the
index of the enclosing span in the same recorder (-1 at the top) and
``request`` the id of the request or job it belongs to (-1 in set-up).
Spans stay in memory until ``write`` is called at the end of the run.
"""

from __future__ import annotations

import contextlib
import json
from pathlib import Path
from time import perf_counter_ns


class Spans:
    def __init__(self) -> None:
        self.records: list[list] = []
        self.request = -1
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = [name, 0, 0, self._stack[-1] if self._stack else -1, self.request]
        self._stack.append(len(self.records))
        self.records.append(rec)
        rec[1] = perf_counter_ns()
        try:
            yield
        finally:
            rec[2] = perf_counter_ns()
            self._stack.pop()

    def wrap(self, name: str, fn):
        """``fn`` recording one span per call. A plain closure rather than
        ``span``, whose generator adds cost to each of the thousands of
        wrapped calls a request makes."""
        records, stack = self.records, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.request]
            stack.append(len(records))
            records.append(rec)
            rec[1] = perf_counter_ns()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter_ns()
                stack.pop()

        return traced

    def patch(self, owner, attr: str, name: str) -> None:
        """Replace ``owner.attr`` by a traced wrapper until ``unpatch``."""
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original))

    def unpatch(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def write(self, path: Path, header: dict) -> None:
        """One JSON header line, then one line per span."""
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for rec in self.records:
                f.write(json.dumps(rec) + "\n")


class NoSpans:
    """Stand-in recorder for untraced runs: records nothing."""

    request = -1

    @staticmethod
    def span(name: str):
        return contextlib.nullcontext()


def read(path: Path) -> tuple[dict, list[list]]:
    with open(path, encoding="utf-8") as f:
        header = json.loads(f.readline())
        return header, [json.loads(line) for line in f]
