"""Capture-chain compiler: the mixer-2 downconversion as a fused op tape.

The uncompiled capture chain (the reference oracle,
``SignatureTestBoard._reference_front_matrix``) spends most of a
batched capture inside :func:`~repro.loadboard.signature_path.mix_envelope`:
the generic harmonic-envelope algebra walks Python dicts, builds
two-sided coefficient tables, and materializes every harmonic of every
mixer cross product -- even though the signature only ever reads the
*baseband* (harmonic 0) of the mixer-2 output.

This module compiles that stage once per board and capture shape
(record length and the DUT output's harmonics):

1. **Trace.**  The real :func:`mix_envelope` runs over symbolic
   envelopes (:class:`_SymbolicEnvelope`) whose operations record an op
   tape instead of touching arrays.  The trace therefore replays the
   algebra's exact dict-iteration and accumulation order by
   construction -- the property the batching bit-identity contract
   rests on.
2. **Lower.**  The final ``keep_harmonics([0]).baseband()`` value is
   rewritten into real arithmetic using only *bitwise value-preserving*
   identities of IEEE-754 / NumPy elementwise kernels (each one is
   locked by ``tests/loadboard/test_capture_compiler.py``):

   * ``(x / 2) * 2 == x`` and ``x * 1.0 == x`` (power-of-two scaling);
   * ``conj(x) / 2 == conj(x / 2)`` and conjugation commutes with
     doubling, real scaling, products and sums;
   * ``Re(a * conj(b)) == Re(conj(a) * b)`` and multiplication
     commutes, so each conjugate-mirrored product pair costs **one**
     complex multiply whose real part is accumulated twice;
   * ``Re(c + d) == Re(c) + Re(d)`` and ``Re(r * c) == r * Re(c)`` for
     a real-coerced operand ``r``, so the harmonic-0 chain runs in real
     float64 end to end.

3. **DCE + fold.**  Only ops reachable from the baseband output are
   kept (the sparse harmonic-mixing structure: each surviving ``mul``
   is one nonzero of the harmonic-product matrix); subgraphs fed only
   by plan-bound inputs (the cached LO and its powers) fold into
   precomputed constants at compile time using the same kernels.
4. **Execute.**  The surviving ops run over preallocated per-program
   workspaces with ``out=`` kernels -- the steady-state inner loop
   performs no Python-level envelope bookkeeping and no allocations.

The compiled program is bit-identical (``np.array_equal``) to the
traced reference chain.
"""

from __future__ import annotations

import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "CaptureTape",
    "CompiledCaptureProgram",
    "TapeNode",
    "trace_mixer_baseband",
]


# ----------------------------------------------------------------------
# the op tape
# ----------------------------------------------------------------------
@dataclass
class TapeNode:
    """One SSA value of the traced mixer algebra."""

    op: str  # input|zeros|half|double|conj|mul|add|scale|real
    args: Tuple[int, ...] = ()
    scalar: Optional[float] = None  # for scale
    key: Optional[Tuple[str, int]] = None  # for input: ("rf"|"lo", harmonic)
    dtype: str = "c"  # "c" complex / "r" real


class CaptureTape:
    """Hash-consed op tape with value-exact smart constructors.

    Every rewrite applied here preserves the *bitwise* value of the
    node under NumPy's elementwise kernels; the identities are asserted
    on random data by ``TestLoweringIdentities``.

    A tape is mutated only while the compiling thread traces the mixer
    chain; once ``CompiledCaptureProgram`` is built the tape is frozen,
    and the program's publication into the board's program cache (under
    ``SignatureTestBoard._state_lock``) orders the writes before
    any cross-thread read.
    """

    def __init__(self):
        self.nodes: List[TapeNode] = []
        self._cons: Dict[tuple, int] = {}
        self._real_products: Dict[tuple, int] = {}

    # -- plumbing ------------------------------------------------------
    def _new(self, node: TapeNode) -> int:
        self.nodes.append(node)
        return len(self.nodes) - 1

    def _cached(self, cons_key: tuple, node: TapeNode) -> int:
        nid = self._cons.get(cons_key)
        if nid is None:
            nid = self._new(node)
            self._cons[cons_key] = nid
        return nid

    def dtype(self, nid: int) -> str:
        return self.nodes[nid].dtype

    # -- leaves --------------------------------------------------------
    def input_(self, kind: str, harmonic: int, dtype: str = "c") -> int:
        return self._cached(
            ("input", kind, harmonic),
            TapeNode("input", key=(kind, harmonic), dtype=dtype),
        )

    def zeros(self) -> int:
        return self._cached(("zeros",), TapeNode("zeros", dtype="r"))

    # -- unary ---------------------------------------------------------
    def conj(self, a: int) -> int:
        node = self.nodes[a]
        if node.dtype == "r":
            return a  # conj of a real value is itself
        if node.op == "conj":
            return node.args[0]
        return self._cached(("conj", a), TapeNode("conj", (a,), dtype="c"))

    def half(self, a: int) -> int:
        node = self.nodes[a]
        if node.op == "double":
            return node.args[0]  # (x * 2) / 2 == x
        if node.op == "conj":
            return self.conj(self.half(node.args[0]))  # conj(x)/2 == conj(x/2)
        return self._cached(("half", a), TapeNode("half", (a,), dtype=node.dtype))

    def double(self, a: int) -> int:
        node = self.nodes[a]
        if node.op == "half":
            return node.args[0]  # (x / 2) * 2 == x
        if node.op == "conj":
            return self.conj(self.double(node.args[0]))
        return self._cached(("double", a), TapeNode("double", (a,), dtype=node.dtype))

    def scale(self, a: int, factor: float) -> int:
        factor = float(factor)
        if factor - 1.0 == 0.0:
            return a  # x * 1.0 == x (elide only the exact identity factor)
        node = self.nodes[a]
        if node.op == "conj":
            return self.conj(self.scale(node.args[0], factor))
        return self._cached(
            ("scale", a, np.float64(factor).tobytes()),
            TapeNode("scale", (a,), scalar=factor, dtype=node.dtype),
        )

    # -- binary --------------------------------------------------------
    def mul(self, a: int, b: int) -> int:
        na, nb = self.nodes[a], self.nodes[b]
        if na.op == "conj" and nb.op == "conj":
            # conj(x) * conj(y) == conj(x * y), componentwise exactly
            return self.conj(self.mul(na.args[0], nb.args[0]))
        dtype = "r" if na.dtype == "r" and nb.dtype == "r" else "c"
        if na.dtype == "r" or nb.dtype == "r":
            # real-operand products commute bitwise in both components;
            # complex x complex only commutes in the real part (FMA skews
            # the imaginary accumulation), so those keep operand order
            a, b = (a, b) if a <= b else (b, a)
        return self._cached(("mul", a, b), TapeNode("mul", (a, b), dtype=dtype))

    def add(self, a: int, b: int) -> int:
        na, nb = self.nodes[a], self.nodes[b]
        if na.op == "conj" and nb.op == "conj":
            return self.conj(self.add(na.args[0], nb.args[0]))
        dtype = "r" if na.dtype == "r" and nb.dtype == "r" else "c"
        lo, hi = (a, b) if a <= b else (b, a)  # ufunc add commutes bitwise
        return self._cached(("add", lo, hi), TapeNode("add", (lo, hi), dtype=dtype))

    # -- real-part lowering -------------------------------------------
    def _conj_base(self, nid: int) -> Tuple[int, int]:
        node = self.nodes[nid]
        if node.op == "conj":
            return node.args[0], 1
        return nid, 0

    def real(self, a: int) -> int:
        """A real node computing ``Re(a)`` bitwise, pushed through the dag."""
        node = self.nodes[a]
        if node.dtype == "r":
            return a
        if node.op == "conj":
            return self.real(node.args[0])
        if node.op == "half":
            return self.half(self.real(node.args[0]))
        if node.op == "double":
            return self.double(self.real(node.args[0]))
        if node.op == "scale":
            return self.scale(self.real(node.args[0]), node.scalar)
        if node.op == "add":
            return self.add(self.real(node.args[0]), self.real(node.args[1]))
        if node.op == "mul":
            x, y = node.args
            if self.nodes[x].dtype == "r":
                return self.mul(x, self.real(y))
            if self.nodes[y].dtype == "r":
                return self.mul(y, self.real(x))
            # Re(a * conj(b)) == Re(conj(a) * b) and Re(conj(ab)) == Re(ab):
            # conjugate-mirrored products share one real part
            (bx, fx), (by, fy) = self._conj_base(x), self._conj_base(y)
            keys = [
                tuple(sorted(((bx, fx), (by, fy)))),
                tuple(sorted(((bx, fx ^ 1), (by, fy ^ 1)))),
            ]
            pair_key = min(keys)
            nid = self._real_products.get(pair_key)
            if nid is None:
                nid = self._cached(("real", a), TapeNode("real", (a,), dtype="r"))
                self._real_products[pair_key] = nid
            return nid
        return self._cached(("real", a), TapeNode("real", (a,), dtype="r"))

    # -- introspection -------------------------------------------------
    def fingerprint(self, out: int) -> tuple:
        """Canonical structure of the dag reaching ``out``.

        Two tapes whose fingerprints match compute the same expression.
        """
        order: List[int] = []
        index: Dict[int, int] = {}

        def visit(nid: int) -> int:
            if nid in index:
                return index[nid]
            node = self.nodes[nid]
            args = tuple(visit(arg) for arg in node.args)
            index[nid] = len(order)
            order.append((node.op, args, node.scalar, node.key))
            return index[nid]

        visit(out)
        return tuple(order)


class _SymbolicEnvelope:
    """Mirror of :class:`repro.loadboard.envelope.EnvelopeSignal` over tape nodes.

    Implements exactly the operations :func:`mix_envelope` and the board's
    baseband extraction use -- ``multiply`` (with the two-sided cache,
    accumulation order and fold of the real algebra), ``scale``, ``+``,
    ``keep_harmonics`` and ``baseband`` -- so tracing the *real*
    ``mix_envelope`` function reproduces the reference op sequence by
    construction.  Harmonic-0 envelopes are real-coerced like the
    ``EnvelopeSignal`` constructor.
    """

    def __init__(self, tape: CaptureTape, envelopes: Dict[int, int]):
        self.tape = tape
        self.envelopes: Dict[int, int] = {
            h: (tape.real(nid) if h == 0 else nid) for h, nid in envelopes.items()
        }
        self._two_sided_cache: Optional[Dict[int, int]] = None

    def _two_sided(self) -> Dict[int, int]:
        if self._two_sided_cache is None:
            t: Dict[int, int] = {}
            for h, nid in self.envelopes.items():
                if h == 0:
                    t[0] = nid
                else:
                    t[h] = self.tape.half(nid)
                    t[-h] = self.tape.half(self.tape.conj(nid))
            self._two_sided_cache = t
        return self._two_sided_cache

    def multiply(
        self, other: "_SymbolicEnvelope", max_harmonic: int = 12
    ) -> "_SymbolicEnvelope":
        a = self._two_sided()
        b = other._two_sided()
        acc: Dict[int, int] = {}
        for ha, ea in a.items():
            for hb, eb in b.items():
                k = ha + hb
                if k < 0 or k > max_harmonic:
                    continue
                prod = self.tape.mul(ea, eb)
                acc[k] = self.tape.add(acc[k], prod) if k in acc else prod
        out: Dict[int, int] = {}
        for h, nid in acc.items():
            if h < 0:
                continue
            out[h] = self.tape.double(nid) if h != 0 else nid
        if not out:
            out = {0: self.tape.zeros()}
        return _SymbolicEnvelope(self.tape, out)

    def scale(self, factor: float) -> "_SymbolicEnvelope":
        return _SymbolicEnvelope(
            self.tape,
            {h: self.tape.scale(nid, factor) for h, nid in self.envelopes.items()},
        )

    def __add__(self, other: "_SymbolicEnvelope") -> "_SymbolicEnvelope":
        out = dict(self.envelopes)
        for h, nid in other.envelopes.items():
            out[h] = self.tape.add(out[h], nid) if h in out else nid
        return _SymbolicEnvelope(self.tape, out)

    def keep_harmonics(self, harmonics) -> "_SymbolicEnvelope":
        keep = set(harmonics)
        out = {h: nid for h, nid in self.envelopes.items() if h in keep}
        if not out:
            out = {0: self.tape.zeros()}
        return _SymbolicEnvelope(self.tape, out)

    def baseband(self) -> int:
        if 0 not in self.envelopes:
            return self.tape.zeros()
        return self.tape.real(self.envelopes[0])


def trace_mixer_baseband(
    mixer,
    rf_harmonics: Sequence[int],
    lo_harmonics: Sequence[int],
    max_harmonic: int,
) -> Tuple[CaptureTape, int]:
    """Trace mixer-2 downconversion + baseband selection into a tape.

    ``rf_harmonics`` / ``lo_harmonics`` are the envelope dict keys of the
    DUT output and the second LO *in dict order* -- the order drives the
    algebra's accumulation sequence, so it is part of the tape identity.
    """
    from repro.loadboard.signature_path import mix_envelope

    tape = CaptureTape()
    rf = _SymbolicEnvelope(
        tape,
        {h: tape.input_("rf", h, dtype="r" if h == 0 else "c") for h in rf_harmonics},
    )
    lo = _SymbolicEnvelope(
        tape,
        {h: tape.input_("lo", h, dtype="r" if h == 0 else "c") for h in lo_harmonics},
    )
    out = mix_envelope(mixer, rf, lo, max_harmonic)
    return tape, out.keep_harmonics([0]).baseband()


# ----------------------------------------------------------------------
# compilation: DCE, constant folding, buffer planning
# ----------------------------------------------------------------------
def _apply_kernel(node: TapeNode, a, b, out=None):
    """Evaluate one tape op with the exact kernels the reference uses.

    Used both for compile-time constant folding and (with ``out=``
    workspaces) for the runtime inner loop, so folded constants are
    bitwise what the reference algebra would have produced.
    """
    if node.op == "half":
        return np.divide(a, 2.0, out=out)
    if node.op == "double":
        return np.multiply(a, 2.0, out=out)
    if node.op == "conj":
        return np.conjugate(a, out=out)
    if node.op == "mul":
        return np.multiply(a, b, out=out)
    if node.op == "add":
        return np.add(a, b, out=out)
    if node.op == "scale":
        return np.multiply(a, node.scalar, out=out)
    if node.op == "real":
        if out is None:
            return a.real + 0.0  # detach from the complex buffer
        np.copyto(out, a.real)
        return out
    raise AssertionError(f"unexpected kernel op {node.op!r}")


@dataclass
class _Step:
    """One scheduled runtime op: kernel + operand locations."""

    node: TapeNode
    out_slot: int
    a: Tuple[str, object]  # ("buf", slot) | ("const", nid) | ("input", key)
    b: Optional[Tuple[str, object]] = None


class CompiledCaptureProgram:
    """An executable, workspace-backed lowering of one mixer tape.

    Parameters
    ----------
    tape, out:
        The traced dag and its baseband output node.
    const_inputs:
        Concrete arrays for plan-bound input slots (the cached LO
        envelopes); every subgraph they feed folds at compile time.

    The per-batch-size workspaces are produced lazily and kept in a
    small LRU pool (:attr:`workspace_pool_size`); :meth:`nbytes` and
    :meth:`release_workspaces` support the board's cache memory
    accounting.  Stage wall times accumulate in :attr:`stage_seconds`
    (guarded by the workspace lock) with the calling thread's most
    recent capture in :attr:`last_stage_seconds`.

    The schedule attributes (``consts``, ``input_keys``, ``steps``,
    ``out_node``, ``fingerprint``, ``op_count`` and the private slot
    and dtype fields) are written once by ``_schedule`` while the
    program is still private to the compiling thread; sharing starts
    only when the board publishes the finished program into its program
    cache under ``SignatureTestBoard._state_lock``.
    """

    #: distinct batch sizes whose workspaces are kept alive
    workspace_pool_size = 4

    def __init__(
        self,
        tape: CaptureTape,
        out: int,
        const_inputs: Optional[Dict[Tuple[str, int], np.ndarray]] = None,
    ):
        const_inputs = dict(const_inputs or {})

        needed = self._needed(tape, out)
        consts = self._fold_constants(tape, needed, const_inputs)
        self._schedule(tape, needed, consts, out)
        self.out_node = out
        self.fingerprint = tape.fingerprint(out)
        self.op_count = len(self.steps)
        self._workspaces: "Dict[tuple, List[np.ndarray]]" = {}
        self._workspace_lock = threading.Lock()
        self.stage_seconds: Dict[str, float] = {}
        self._capture_tls = threading.local()

    # -- compile passes ------------------------------------------------
    @staticmethod
    def _needed(tape: CaptureTape, out: int) -> List[int]:
        needed = set()
        stack = [out]
        while stack:
            nid = stack.pop()
            if nid in needed:
                continue
            needed.add(nid)
            stack.extend(tape.nodes[nid].args)
        return sorted(needed)  # construction order is topological

    def _fold_constants(self, tape, needed, const_inputs) -> Dict[int, np.ndarray]:
        """Evaluate every needed node fed only by plan-bound inputs."""
        consts: Dict[int, np.ndarray] = {}
        for nid in needed:
            node = tape.nodes[nid]
            if node.op == "input":
                if node.key in const_inputs:
                    arr = np.asarray(const_inputs[node.key])
                    consts[nid] = arr.real + 0.0 if node.dtype == "r" else arr
                continue
            if node.op == "zeros":
                consts[nid] = np.zeros(1)
                continue
            if all(arg in consts for arg in node.args):
                args = [consts[arg] for arg in node.args]
                a = args[0]
                b = args[1] if len(args) > 1 else None
                consts[nid] = _apply_kernel(node, a, b)
        return consts

    def _schedule(self, tape, needed, consts, out) -> None:
        """Linearize runtime ops and assign liveness-reused buffer slots."""
        runtime = [
            nid
            for nid in needed
            if nid not in consts and tape.nodes[nid].op != "input"
        ]
        refs: Dict[int, int] = {nid: 0 for nid in runtime}
        for nid in runtime:
            for arg in tape.nodes[nid].args:
                if arg in refs:
                    refs[arg] += 1
        if out in refs:
            refs[out] += 1  # the output buffer survives the whole call

        self.consts = consts
        self.input_keys = sorted(
            tape.nodes[nid].key
            for nid in needed
            if tape.nodes[nid].op == "input" and nid not in consts
        )
        self._input_dtype = {
            tape.nodes[nid].key: tape.nodes[nid].dtype
            for nid in needed
            if tape.nodes[nid].op == "input" and nid not in consts
        }

        free: Dict[str, List[int]] = {"c": [], "r": []}
        slot_dtype: List[str] = []
        slot_of: Dict[int, int] = {}
        steps: List[_Step] = []

        def loc(arg: int) -> Tuple[str, object]:
            if arg in consts:
                return ("const", arg)
            node = tape.nodes[arg]
            if node.op == "input":
                return ("input", node.key)
            return ("buf", slot_of[arg])

        for nid in runtime:
            node = tape.nodes[nid]
            pool = free[node.dtype]
            if pool:
                slot = pool.pop()
            else:
                slot = len(slot_dtype)
                slot_dtype.append(node.dtype)
            slot_of[nid] = slot
            args = node.args
            steps.append(
                _Step(
                    node,
                    slot,
                    loc(args[0]),
                    loc(args[1]) if len(args) > 1 else None,
                )
            )
            for arg in args:
                if arg in refs:
                    refs[arg] -= 1
                    if refs[arg] == 0 and arg != out:
                        free[tape.nodes[arg].dtype].append(slot_of[arg])
        self.steps = steps
        self._slot_dtype = slot_dtype
        self._out_slot = slot_of.get(out)
        self._out_const = consts.get(out)

    # -- workspaces ----------------------------------------------------
    def _buffers(self, batch: int, n: int) -> List[np.ndarray]:
        # keyed by thread ident: concurrent captures on a shared program
        # (thread executors) must not scribble over each other's buffers
        key = (threading.get_ident(), batch, n)
        with self._workspace_lock:
            bufs = self._workspaces.get(key)
            if bufs is None:
                bufs = [
                    np.empty(
                        (batch, n),
                        dtype=np.complex128 if dt == "c" else np.float64,
                    )
                    for dt in self._slot_dtype
                ]
                self._workspaces[key] = bufs
                while len(self._workspaces) > self.workspace_pool_size:
                    self._workspaces.pop(next(iter(self._workspaces)))
            else:
                # LRU: re-inserting keeps hot batch sizes alive
                self._workspaces.pop(key)
                self._workspaces[key] = bufs
        return bufs

    def release_workspaces(self) -> None:
        """Drop every cached workspace (reallocated on next execute)."""
        with self._workspace_lock:
            self._workspaces = {}

    def nbytes(self) -> int:
        """Constant + workspace bytes retained by this program."""
        total = sum(arr.nbytes for arr in self.consts.values())
        with self._workspace_lock:
            for bufs in self._workspaces.values():
                total += sum(buf.nbytes for buf in bufs)
        return total

    def __getstate__(self):
        # workspaces are cheap to rebuild and may hold megabytes; the
        # lock and thread-local timing are recreated on unpickle
        state = self.__dict__.copy()
        state["_workspaces"] = {}
        del state["_workspace_lock"]
        del state["_capture_tls"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._workspace_lock = threading.Lock()
        self._capture_tls = threading.local()

    # -- profiling -----------------------------------------------------
    @property
    def last_stage_seconds(self) -> Dict[str, float]:
        """The calling thread's stage breakdown for its current capture.

        Thread-local: concurrent captures on a shared program (thread
        executors) each see only their own timings.
        """
        breakdown = getattr(self._capture_tls, "stage_seconds", None)
        if breakdown is None:
            breakdown = {}
            self._capture_tls.stage_seconds = breakdown
        return breakdown

    def begin_capture(self) -> None:
        """Reset the per-capture stage breakdown."""
        self._capture_tls.stage_seconds = {}

    @contextmanager
    def stage(self, name: str):
        """Record wall time of one pipeline stage under ``name``."""
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            breakdown = self.last_stage_seconds
            breakdown[name] = breakdown.get(name, 0.0) + elapsed
            with self._workspace_lock:
                self.stage_seconds[name] = (
                    self.stage_seconds.get(name, 0.0) + elapsed
                )

    # -- execution -----------------------------------------------------
    def execute(
        self,
        rf_envelopes: Dict[int, np.ndarray],
        lo_envelopes: Optional[Dict[int, np.ndarray]] = None,
    ) -> np.ndarray:
        """Run the tape; returns the real baseband ``(batch, n)`` matrix.

        ``rf_envelopes`` holds the DUT-output envelope arrays keyed by
        harmonic; ``lo_envelopes`` supplies the LO slots when they were
        not plan-bound (the random-path-phase regime).  The returned
        array is owned by the program's workspace and must be consumed
        before the next ``execute`` call on the same batch size.
        """
        sources = {"rf": rf_envelopes, "lo": lo_envelopes or {}}
        inputs: Dict[Tuple[str, int], np.ndarray] = {}
        batch = None
        n = None
        for key in self.input_keys:
            kind, harmonic = key
            arr = sources[kind].get(harmonic)
            if arr is None:
                raise ValueError(f"missing runtime input {key}")
            arr = np.asarray(arr)
            if self._input_dtype[key] == "r":
                arr = arr.real
            if arr.ndim == 2:
                batch = arr.shape[0]
            n = arr.shape[-1]
            inputs[key] = arr
        if batch is None:
            batch = 1
        if n is None:  # fully folded tape (no runtime inputs)
            out = self._out_const
            if out is None:
                raise ValueError("program has neither runtime output nor constant")
            return np.broadcast_to(out.real, (batch, out.shape[-1]))

        bufs = self._buffers(batch, n)

        def fetch(src):
            kind, ref = src
            if kind == "buf":
                return bufs[ref]
            if kind == "const":
                return self.consts[ref]
            return inputs[ref]

        result = None
        for step in self.steps:
            a = fetch(step.a)
            b = fetch(step.b) if step.b is not None else None
            result = _apply_kernel(step.node, a, b, out=bufs[step.out_slot])
        if self._out_slot is not None:
            result = bufs[self._out_slot]
        return result
