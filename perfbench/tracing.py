"""Spans recorded around the package's public entry points, from outside.

The benchmark replaces module attributes with timing wrappers; the package
itself is not edited. A wrapper is installed where the caller looks the name
up: ``search`` imports ``build_npc`` by name, so ``search.build_npc`` is the
attribute to replace, while methods are replaced on their class.

Spans are kept in memory as (name, start, end, parent index) and summarised
when the traced pass ends. A span's self time is its duration minus the
durations of its direct children, which is exact because every call runs on
one thread and spans nest.
"""

from __future__ import annotations

import functools
from collections import Counter, defaultdict
from time import perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list[int] = []
        self.failed: Counter = Counter()
        self.true_verdicts: Counter = Counter()
        self.active = False
        self._installed: list = []

    def _enter(self, name: str) -> int:
        index = len(self.spans)
        self.spans.append((name, perf_counter(), None, self.stack[-1] if self.stack else -1))
        self.stack.append(index)
        return index

    def _exit(self, index: int, failed: bool = False) -> None:
        end = perf_counter()
        self.stack.pop()
        name, start, _, parent = self.spans[index]
        self.spans[index] = (name, start, end, parent)
        if failed:
            self.failed[name] += 1

    def wrap(self, name: str, fn, verdict: bool = False):
        """Return fn recording one span per call while the tracer is active.

        With verdict, truthy results are counted as well.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            index = tracer._enter(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._exit(index, failed=True)
                raise
            tracer._exit(index)
            if verdict and result:
                tracer.true_verdicts[name] += 1
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        """Return fn whose generator records one span per item requested.

        The spans cover the time the consumer is blocked waiting for the
        next item, the final exhausting request included.
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                if not tracer.active:
                    yield from inner
                    return
                index = tracer._enter(name)
                try:
                    item = next(inner)
                except StopIteration:
                    tracer._exit(index)
                    return
                except BaseException:
                    tracer._exit(index, failed=True)
                    raise
                tracer._exit(index)
                yield item

        return traced

    def install(self, owner, attribute: str, name: str, generator: bool = False,
                verdict: bool = False) -> None:
        original = getattr(owner, attribute)
        if generator:
            wrapped = self.wrap_generator(name, original)
        else:
            wrapped = self.wrap(name, original, verdict=verdict)
        setattr(owner, attribute, wrapped)
        self._installed.append((owner, attribute, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attribute, original = self._installed.pop()
            setattr(owner, attribute, original)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, total seconds, self seconds, failed, true verdicts."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
        for index, (name, start, end, _) in enumerate(self.spans):
            entry = out[name]
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[index]
        for entry_name, entry in out.items():
            entry["failed"] = self.failed[entry_name]
            entry["true"] = self.true_verdicts[entry_name]
        return dict(out)


def instrument(tracer: Tracer, api) -> None:
    """Wrap every traced entry point of one imported copy of the package."""
    cli, search, inverse, factoring = api.cli, api.search, api.inverse, api.factoring
    tracer.install(cli, "main", "cli.main")
    tracer.install(cli, "run_search", "search.run_search", generator=True)
    tracer.install(cli, "write_records", "search.write_records")
    for family in ("invariant", "first", "second"):
        tracer.install(cli, f"recover_{family}", f"inverse.recover_{family}")
    tracer.install(search, "same_parity_pair", "curve.same_parity_pair")
    tracer.install(search, "build_npc", "cuboids.build_npc")
    tracer.install(search, "cuboid_to_json", "cuboids.cuboid_to_json")
    tracer.install(api.curve.CurvePoint, "add", "curve.CurvePoint.add")
    tracer.install(api.curve.CurvePoint, "mul", "curve.CurvePoint.mul")
    tracer.install(api.cuboids, "sqrt_exact", "rationals.sqrt_exact")
    tracer.install(api.cuboids, "primitive_integer_scaling", "rationals.primitive_integer_scaling")
    tracer.install(inverse, "sqrt_exact", "rationals.sqrt_exact")
    tracer.install(inverse, "verify_npc", "cuboids.verify_npc")
    tracer.install(inverse, "squarefree_kernel", "factoring.squarefree_kernel")
    tracer.install(factoring, "squarefree_part", "factoring.squarefree_part")
    tracer.install(factoring, "is_probable_prime", "factoring.is_probable_prime", verdict=True)
