"""Outside-in tracing of the adhocsv library for the per-layer metrics.

:class:`Tracer` wraps every public function of the library modules, also
where another module imported it by name (``trainer.gcn_agg``,
``trainer.build_prior``), plus ``Tensor.backward``.  Each wrapped call
records a span (name, start, end, parent) in memory.  ``Tensor.__init__``
is wrapped to count tensors and their bytes against the innermost open
span.  A few wrappers also note a per-call fact (attention entries masked
in, gpool ties, prior fallbacks) that the layer metrics need.

Nothing is wrapped outside :meth:`Tracer.installed`; the end-to-end runs
never enter it.
"""

from __future__ import annotations

import functools
import time
import types
from contextlib import contextmanager

import numpy as np

from adhocsv import chansel, diffcore, graphs, scenesim, stagg, trainer

MODULES = (diffcore, graphs, stagg, chansel, scenesim, trainer)
AGG_FUNCTIONS = ("stagg.gcn_agg", "stagg.sam_agg")


def _agg_axis(args, kwargs) -> str:
    """'temporal' or 'spatial', read from the parameter names of the call."""
    params = args[2] if len(args) > 2 else kwargs["params"]
    return params.parameters()[0].name.split(".")[1]


def _attn_entries(args, kwargs, result):
    """(masked-in, computed) attention entries of one masked_softmax call."""
    logits = args[0] if args else kwargs["logits"]
    mask = np.asarray(args[1] if len(args) > 1 else kwargs["mask"], dtype=bool)
    size = int(np.prod(logits.shape))
    return int(mask.sum()) * (size // mask.size), size


def _gpool_tie(scores, args, kwargs):
    """True when the k-th and (k+1)-th channel scores are exactly equal."""
    k = args[3] if len(args) > 3 else kwargs["k"]
    ranked = np.sort(scores)[::-1]
    return bool(k < ranked.size and ranked[k - 1] == ranked[k])


def _prior_fallback(args, kwargs, result):
    """True when no channel passed the distance-ratio test of build_prior."""
    scene = args[0] if args else kwargs["scene"]
    rho = args[1] if len(args) > 1 else kwargs["rho"]
    dist = np.linalg.norm(scene.node_pos - scene.speaker_pos, axis=1)
    return bool(dist.max() > 0.0 and not (dist / dist.max() < rho).any())


class Tracer:
    """In-memory spans and tensor counters for one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[int] = []
        self.ends: list[int] = []
        self.parents: list[int] = []
        self.tensors: list[int] = []  # tensors built while the span was innermost
        self.tensor_bytes: list[int] = []
        self.notes: dict[int, object] = {}
        self._scores = None  # the latest chansel.channel_scores result, read by gpool's note
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------

    def _open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.starts.append(0)
        self.ends.append(0)
        self.tensors.append(0)
        self.tensor_bytes.append(0)
        self._stack.append(idx)
        self.starts[idx] = time.perf_counter_ns()
        return idx

    def _close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span opened by the benchmark itself (phases, units of work)."""
        idx = self._open(name)
        try:
            yield idx
        finally:
            self._close(idx)

    def _wrap(self, name: str, fn, note=None, label=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self._open(name if label is None else f"{name}.{label(args, kwargs)}")
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx)
            if note is not None:
                value = note(args, kwargs, result)
                if value is not None:
                    self.notes[idx] = value
            return result

        return wrapper

    def _keep_scores(self, args, kwargs, result):
        self._scores = np.array(result.data)

    # -- installing ----------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        notes = {
            "diffcore.masked_softmax": _attn_entries,
            "chansel.channel_scores": self._keep_scores,
            "chansel.gpool": lambda args, kwargs, result: _gpool_tie(self._scores, args, kwargs),
            "graphs.build_prior": _prior_fallback,
        }
        labels = {name: _agg_axis for name in AGG_FUNCTIONS}
        wrapped = {}
        for module in MODULES:
            short = module.__name__.rsplit(".", 1)[1]
            for attr in module.__all__:
                fn = getattr(module, attr)
                if isinstance(fn, types.FunctionType) and fn.__module__ == module.__name__:
                    name = f"{short}.{attr}"
                    wrapped[fn] = self._wrap(name, fn, notes.get(name), labels.get(name))
        # Rebind every module-level reference, including names imported
        # into another module, so internal calls are traced too.
        for module in MODULES:
            for attr, value in list(vars(module).items()):
                if isinstance(value, types.FunctionType) and value in wrapped:
                    self._patch(module, attr, wrapped[value])

        tensor = diffcore.Tensor
        self._patch(tensor, "backward", self._wrap("diffcore.Tensor.backward", tensor.backward))
        init = tensor.__init__

        def counting_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if self._stack:
                top = self._stack[-1]
                self.tensors[top] += 1
                self.tensor_bytes[top] += obj.data.nbytes

        self._patch(tensor, "__init__", counting_init)

    def uninstall(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def spans(self) -> list[tuple[str, int, int, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))
