"""Outside-in spans: wrap oseenlab's public functions and count transforms.

Nothing in ``src/`` knows about these spans.  :meth:`Tracer.install` replaces
each target function with a timing wrapper at every ``oseenlab`` module that
binds it (``solve_steady`` is imported into ``picard`` and ``harness``, for
example), and wraps the whole transform family of ``scipy.fft`` and
``numpy.fft`` as the single span ``fields.fft``.  A target that no longer
exists is reported as missing instead of raising, so a refactor that renames
a function shows up as a gap in the table, not as a crashed benchmark.

Each span keeps a call count, inclusive wall time (``total_s``) and self time
(``self_s``: inclusive time minus the time spent in wrapped children).  The
``fields.fft`` span also sums the input sizes of its calls (``points``), so a
switch to real transforms shows up as fewer points, not as uncounted calls.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time

# span name -> (module, qualified name) of every function it covers
SPANS = {
    "fields.sample_times": [("oseenlab.fields", "TimePeriodicField.sample_times")],
    "fields.from_time_samples": [
        ("oseenlab.fields", "TimePeriodicField.from_time_samples")
    ],
    "oseen.solve_steady": [("oseenlab.oseen", "solve_steady")],
    "oseen.solve_timeperiodic": [("oseenlab.oseen", "solve_timeperiodic")],
    "nonlinear.nonlinearity": [("oseenlab.nonlinear", "nonlinearity")],
    "nonlinear.convective_product": [("oseenlab.nonlinear", "convective_product")],
    "norms.lambda_norm": [("oseenlab.norms", "lambda_norm")],
    "norms.negative_norm_surrogate": [("oseenlab.norms", "negative_norm_surrogate")],
    "norms.maxreg_norm": [("oseenlab.norms", "maxreg_norm")],
    "norms.sobolev_seminorm": [("oseenlab.norms", "sobolev_seminorm")],
    "norms.lq_norm": [("oseenlab.norms", "lq_norm")],
    "picard.picard_steady": [("oseenlab.picard", "picard_steady")],
    "picard.picard_timeperiodic": [("oseenlab.picard", "picard_timeperiodic")],
    "harness.fit_smallness_constant": [("oseenlab.harness", "fit_smallness_constant")],
    "harness.random_fields": [
        ("oseenlab.harness", "random_scalar_field"),
        ("oseenlab.harness", "random_divergence_free"),
        ("oseenlab.harness", "random_oscillatory"),
        ("oseenlab.harness", "random_timeperiodic_forcing"),
    ],
    "harness.run_experiment": [("oseenlab.harness", "run_experiment")],
    "lifting.build_lifting": [("oseenlab.lifting", "build_lifting")],
}

FFT_SPAN = "fields.fft"
FFT_MODULES = ("scipy.fft", "numpy.fft")
FFT_FUNCTIONS = ("fftn", "ifftn", "rfftn", "irfftn", "fft", "ifft", "rfft", "irfft")

_PACKAGE = "oseenlab"


class SpanStats:
    """Accumulated figures of one span."""

    __slots__ = ("calls", "total_s", "self_s", "points")

    def __init__(self) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.points = 0

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            "points": self.points,
        }


class Tracer:
    """Span registry plus the bookkeeping to install and remove the wrappers."""

    def __init__(self, spans: dict | None = None) -> None:
        self.spans = dict(SPANS if spans is None else spans)
        self.stats = {name: SpanStats() for name in [*self.spans, FFT_SPAN]}
        self.missing: dict[str, list[str]] = {}
        self._children = [0.0]  # child time of each open span; [0] is the root
        self._undo: list[tuple[object, str, object]] = []

    # -- timing ---------------------------------------------------------

    def _wrap(self, name: str, func, count_points: bool = False):
        stats = self.stats[name]
        children = self._children
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            children.append(0.0)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = children.pop()
                children[-1] += elapsed
                stats.calls += 1
                stats.total_s += elapsed
                stats.self_s += elapsed - inner
                if count_points and args:
                    stats.points += int(getattr(args[0], "size", 0))

        return wrapper

    # -- installation ---------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _rebind(self, original, replacement) -> int:
        """Point every oseenlab module global bound to ``original`` at the wrapper."""
        bound = 0
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == _PACKAGE or mod_name.startswith(_PACKAGE + ".")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, replacement)
                    bound += 1
        return bound

    def _install_target(self, name: str, module_name: str, qualname: str) -> bool:
        try:
            owner = importlib.import_module(module_name)
        except ImportError:
            return False
        *outer, attr = qualname.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
            if owner is None:
                return False
        raw = vars(owner).get(attr)
        if raw is None:
            return False
        if isinstance(owner, type):
            # A method: wrap the class attribute; every call goes through it.
            if isinstance(raw, (classmethod, staticmethod)):
                self._set(owner, attr, type(raw)(self._wrap(name, raw.__func__)))
            elif callable(raw):
                self._set(owner, attr, self._wrap(name, raw))
            else:
                return False
            return True
        if not callable(raw):
            return False
        return self._rebind(raw, self._wrap(name, raw)) > 0

    def install(self) -> "Tracer":
        """Import oseenlab, then wrap every target that exists."""
        importlib.import_module(_PACKAGE)
        importlib.import_module(_PACKAGE + ".cli")
        for name, targets in self.spans.items():
            absent = [
                f"{module_name}.{qualname}"
                for module_name, qualname in targets
                if not self._install_target(name, module_name, qualname)
            ]
            if len(absent) == len(targets):
                self.missing[name] = absent
        for module_name in FFT_MODULES:
            module = importlib.import_module(module_name)
            for func_name in FFT_FUNCTIONS:
                original = vars(module).get(func_name)
                if original is None:
                    continue
                wrapper = self._wrap(FFT_SPAN, original, count_points=True)
                self._rebind(original, wrapper)
                self._set(module, func_name, wrapper)
        return self

    def uninstall(self) -> None:
        """Restore every attribute :meth:`install` replaced, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def report(self) -> dict:
        """Per-span figures; missing spans map to ``None``."""
        return {
            name: None if name in self.missing else stats.as_dict()
            for name, stats in self.stats.items()
        }
