"""Spans and counts recorded around ``qschur``'s public functions, from outside.

:class:`Tracer` replaces each target function with a wrapper in every
``qschur`` module namespace that holds it (``from .x import f`` binds the
same object under several modules), and patches ``__init__`` of target
classes.  No source file changes; :meth:`Tracer.uninstall` puts the
originals back.

Each wrapped call pushes a frame on a stack.  On return its self time is
its duration minus the time its wrapped children took, so recursive
functions such as ``leq`` and ``interval_chains`` add up correctly: every
frame subtracts only its own direct children.  Counts and self times are
kept for every call.  Spans (id, name, start, end, parent id, request id)
are kept in compact arrays up to ``span_cap`` and written out at the end;
calls beyond the cap still count, they only lose their span record.
"""

from __future__ import annotations

import sys
import time
from array import array
from collections import Counter, defaultdict

# Functions and classes wrapped in the traced run, by module.
TARGETS = {
    "cli": ("main",),
    "compositions": ("interval_chains", "leq", "covers", "down_covers"),
    "tableaux": (
        "enumerate_standard",
        "chain_to_tableau",
        "descent_composition",
        "column_word",
        "Tableau",
        "SkewShape",
    ),
    "transforms": ("rect", "insert_ssrt", "unpack_columns"),
    "qsym": (
        "skew_qs_schur",
        "qs_schur",
        "convert",
        "to_polynomial",
        "coproduct",
        "multiply",
    ),
    "nsym": ("product_nc_schur", "lr_coeff", "classical_lr"),
    "applications": (
        "pr_product",
        "pr_product_words",
        "qs_rs",
        "lift",
        "descent_pieri_K",
        "knuth_class",
    ),
}

PRODUCT = "nsym.product_nc_schur"


def qschur_modules() -> list:
    return [m for n, m in sorted(sys.modules.items()) if n.split(".")[0] == "qschur"]


def find_caches() -> dict:
    """Every ``functools`` cache reachable from a ``qschur`` module or class,
    keyed ``<module>.<qualname>`` (module without the package prefix)."""
    found = {}
    for module in qschur_modules():
        spaces = [vars(module)]
        spaces += [vars(v) for v in vars(module).values() if isinstance(v, type)]
        for space in spaces:
            for value in space.values():
                if callable(getattr(value, "cache_info", None)) and callable(
                    getattr(value, "cache_clear", None)
                ):
                    owner = value.__module__.removeprefix("qschur.")
                    found[f"{owner}.{value.__qualname__}"] = value
    return found


class Tracer:
    def __init__(self, span_cap: int = 200_000):
        self.span_cap = span_cap
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.extra: Counter = Counter()  # fillings, nonzero results, ...
        self.names: list[str] = []
        self.request = -1
        self.spans_total = 0
        self._stack: list = []
        self._ids = array("q")
        self._name_ids = array("q")
        self._parents = array("q")
        self._requests = array("q")
        self._starts = array("d")
        self._ends = array("d")
        self._patched: list = []  # (module or class, attribute, original)

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = qschur_modules()
        by_name = {m.__name__.removeprefix("qschur."): m for m in modules}
        for short, attrs in TARGETS.items():
            module = by_name.get(short)
            for attr in attrs:
                original = getattr(module, attr, None)
                if original is None:
                    continue  # removed by a later version: its metrics read 0
                name = f"{short}.{attr}"
                if isinstance(original, type):
                    init = original.__init__
                    self._patched.append((original, "__init__", init))
                    setattr(original, "__init__", self._wrap(name, init))
                    continue
                wrapper = self._wrap(name, original)
                for m in modules:
                    for key, value in list(vars(m).items()):
                        if value is original:
                            self._patched.append((m, key, original))
                            setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- recording ----------------------------------------------------------

    def _wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        clock = time.perf_counter
        after = getattr(self, "_after_" + name.replace(".", "_"), None)
        keyed = name == "qsym.convert"

        def wrapper(*args, **kwargs):
            self.spans_total += 1
            span_id = self.spans_total
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0, name]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                own = duration - frame[1]
                self.calls[name] += 1
                self.self_s[name] += own
                if keyed:
                    basis = args[1] if len(args) > 1 else kwargs.get("basis")
                    self.self_s[f"{name}.to_{basis}"] += own
                if stack:
                    stack[-1][1] += duration
                if span_id <= self.span_cap:
                    self._ids.append(span_id)
                    self._name_ids.append(name_id)
                    self._parents.append(parent)
                    self._requests.append(self.request)
                    self._starts.append(start)
                    self._ends.append(end)
            if after is not None:
                after(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _after_tableaux_enumerate_standard(self, args, result) -> None:
        self.extra["tableaux.enumerate_standard.fillings"] += len(result)
        if self.names_on_stack(PRODUCT):
            self.extra["nsym.product_fillings"] += len(result)

    def _after_nsym_lr_coeff(self, args, result) -> None:
        if result:
            self.extra["nsym.lr_coeff.nonzero"] += 1

    def _after_nsym_product_nc_schur(self, args, result) -> None:
        self.extra["nsym.product_coeff_sum"] += sum(result.terms.values())

    def names_on_stack(self, name: str) -> bool:
        """True while a call of ``name`` is open."""
        return any(frame[2] == name for frame in self._stack)

    # -- output -------------------------------------------------------------

    def write_spans(self, path) -> int:
        """Write recorded spans as tab-separated rows; return the row count."""
        with open(path, "w") as out:
            out.write("id\tname\tstart_s\tend_s\tparent\trequest\n")
            for i in range(len(self._ids)):
                out.write(
                    f"{self._ids[i]}\t{self.names[self._name_ids[i]]}\t"
                    f"{self._starts[i]:.9f}\t{self._ends[i]:.9f}\t"
                    f"{self._parents[i]}\t{self._requests[i]}\n"
                )
        return len(self._ids)
