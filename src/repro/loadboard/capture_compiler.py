"""Capture-chain compiler: the mixer-2 downconversion as a fused op tape.

The uncompiled capture chain (the reference oracle,
:func:`repro.verify.reference.reference_front_matrix`) spends most of a
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

   * ``conj(x) / 2 == conj(x / 2)`` and conjugation commutes with
     doubling, real scaling, products and sums;
   * ``Re(a * conj(b)) == Re(conj(a) * b)`` and multiplication
     commutes, so each conjugate-mirrored product pair costs **one**
     complex multiply whose real part is accumulated twice;
   * ``Re(c + d) == Re(c) + Re(d)`` and ``Re(r * c) == r * Re(c)`` for
     a real-coerced operand ``r``, so the harmonic-0 chain runs in real
     float64 end to end;
   * a power-of-two factor ``2**k`` commutes with every kernel:
     ``(2**k a) * b == 2**k (a * b)`` (NumPy's FMA complex multiply
     included), ``2**k a + 2**k b == 2**k (a + b)``, ``x + x == 2 x``,
     ``c (2**k x) == (c 2**k) x`` and ``x * 1.0 == x``, for finite
     values whose intermediates stay in the normal range.

   The traced tape still halves every two-sided harmonic and doubles
   every folded one.  A second pass,
   ``CompiledCaptureProgram._fold_scalings``, rebuilds it with a
   power-of-two exponent carried on every runtime node and folded into
   the constants (the LO factors, the mixer coefficients), so the
   emitted program has no ``half`` (a complex division), no ``double``
   and no ``x + x`` step.
3. **DCE + fold.**  Only ops reachable from the baseband output are
   kept (the sparse harmonic-mixing structure: each surviving ``mul``
   is one nonzero of the harmonic-product matrix); subgraphs fed only
   by plan-bound inputs (the cached LO and its powers) fold into
   precomputed constants at compile time using the same kernels.
4. **Execute.**  The surviving ops run over preallocated block-sized
   workspaces with ``out=`` kernels, as an op list bound once per
   (thread, record length) for full blocks: each entry holds its
   kernel, its operand arrays and its output view, so the steady-state
   inner loop performs no operand lookups, no envelope bookkeeping and
   no allocations.  A step may write over an operand it reads for the
   last time, so the workspace holds only the block's live values.
   One call runs one cache-resident block of rows (:data:`BLOCK_BYTES`);
   the board streams a whole lot through it block by block.

The compiled program is bit-identical (``np.array_equal``) to the
traced reference chain.
"""

from __future__ import annotations

import math
import threading
from collections import Counter
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

__all__ = [
    "BLOCK_BYTES",
    "CaptureTape",
    "CompiledCaptureProgram",
    "TapeNode",
    "block_rows",
    "trace_mixer_baseband",
]

#: bytes of one complex row block: a whole-lot capture runs its
#: device-dependent half in blocks of rows whose complex operands stay
#: cache resident (a 1,000-row ``(N, 400)`` operand spills L2)
BLOCK_BYTES = 256 * 1024


def block_rows(n: int) -> int:
    """Rows per block for engine-rate records of ``n`` samples (at least 1)."""
    return max(1, BLOCK_BYTES // (np.dtype(np.complex128).itemsize * max(1, n)))


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
    ``SignatureTestBoard._cache_lock``) orders the writes before
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
        if node.op == "conj":
            return self.conj(self.half(node.args[0]))  # conj(x)/2 == conj(x/2)
        return self._cached(("half", a), TapeNode("half", (a,), dtype=node.dtype))

    def double(self, a: int) -> int:
        node = self.nodes[a]
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
def _power_of_two(factor: float) -> Optional[int]:
    """``k`` when ``factor == 2.0**k`` exactly, else ``None``."""
    if not (math.isfinite(factor) and factor > 0.0):
        return None
    num, den = factor.as_integer_ratio()  # in lowest terms
    if num & (num - 1) or den & (den - 1):
        return None
    return num.bit_length() - den.bit_length()


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


def _bind_kernel(node: TapeNode, a, b, out) -> Tuple[object, tuple]:
    """``(function, positional args)`` running one tape op into ``out``.

    The kernels, operands and operand order of :func:`_apply_kernel`
    with ``out=``, resolved once so a call is just ``fn(*args)``.
    """
    if node.op == "conj":
        return np.conjugate, (a, out)
    if node.op == "mul":
        return np.multiply, (a, b, out)
    if node.op == "add":
        return np.add, (a, b, out)
    if node.op == "scale":
        return np.multiply, (a, node.scalar, out)
    if node.op == "real":
        return np.copyto, (out, a.real)
    raise AssertionError(f"unexpected kernel op {node.op!r}")


class _Workspace:
    """One thread's block buffers at one record length, and the op list
    bound to them for full blocks (see
    :meth:`CompiledCaptureProgram._bind`)."""

    __slots__ = ("bufs", "full")

    def __init__(self, bufs: List[np.ndarray]):
        self.bufs = bufs
        self.full: Optional[tuple] = None


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

    Each thread gets one workspace set per record length ``n``, sized
    to one block of :func:`block_rows` rows, and keeps with it the op
    list bound to it for full blocks; pickling drops both.
    :meth:`execute` runs one block at a time (the board streams a lot
    through it block by block), so the retained bytes (:meth:`nbytes`)
    never grow with the lot.

    The schedule attributes (``consts``, ``input_keys``, ``steps``,
    ``out_node``, ``fingerprint``, ``op_count`` and the private slot
    and dtype fields) are written once by ``_schedule`` while the
    program is still private to the compiling thread; sharing starts
    only when the board publishes the finished program into its program
    cache under ``SignatureTestBoard._cache_lock``.
    """

    def __init__(
        self,
        tape: CaptureTape,
        out: int,
        const_inputs: Optional[Dict[Tuple[str, int], np.ndarray]] = None,
    ):
        const_inputs = dict(const_inputs or {})

        self.fingerprint = tape.fingerprint(out)
        tape, out = self._fold_scalings(tape, out, set(const_inputs))
        needed = self._needed(tape, out)
        consts = self._fold_constants(tape, needed, const_inputs)
        # a folded operand whose samples all share their bits (every
        # folded LO constant of a coherent capture) runs as a 0-d
        # scalar: NumPy multiplies by a scalar operand about twice as
        # fast as by a broadcast row, to the same bits
        # (tests/test_stacking_identities.py pins it)
        for nid, arr in consts.items():
            flat = arr.reshape(-1)
            if nid != out and flat.size and arr.tobytes() == flat[:1].tobytes() * flat.size:
                consts[nid] = flat[:1].reshape(()).copy()
        self._schedule(tape, needed, consts, out)
        self.out_node = out
        self.op_count = len(self.steps)
        self._workspaces: "Dict[tuple, _Workspace]" = {}
        self._workspace_lock = threading.Lock()

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

    @classmethod
    def _fold_scalings(
        cls, tape: CaptureTape, out: int, const_keys
    ) -> Tuple[CaptureTape, int]:
        """A new tape computing ``out`` with no runtime power-of-two scaling.

        Each runtime node of ``tape`` becomes a pair ``(node, k)`` of a
        new tape whose value times ``2**k`` is the traced value bit for
        bit: ``half``, ``double``, a ``scale`` by a power of two and
        ``add(x, x)`` only move ``k``; ``conj`` and ``real`` carry it;
        ``mul`` adds its operands' ``k``.  An exponent goes into a
        constant factor wherever one is at hand -- a constant operand
        of a ``mul`` (as a ``scale`` node that folding evaluates) or
        the scalar of a ``scale`` -- and an ``add`` of unequal exponents
        or a non-zero exponent at the output costs one runtime ``scale``
        only when no single-use operand can take it (through ``real``
        and ``conj``) for free.  Subgraphs of plan-bound inputs are
        copied as traced, so folding computes the same constants.
        """
        needed = cls._needed(tape, out)
        uses = Counter(arg for nid in needed for arg in tape.nodes[nid].args)
        uses[out] += 1
        new = CaptureTape()
        # new node -> fed only by plan-bound inputs
        const: Dict[int, bool] = {}
        # new node -> consumers still to come (a single-use node may be
        # rewritten in place of its one consumer's operand)
        owners: Counter = Counter()

        def is_const(nid: int) -> bool:
            if nid not in const:
                node = new.nodes[nid]
                if node.op == "input":
                    const[nid] = node.key in const_keys
                else:
                    const[nid] = all(is_const(arg) for arg in node.args)
            return const[nid]

        def absorb(nid: int, k: int) -> Optional[int]:
            """A node equal to ``2**k * nid`` at no runtime cost, or None."""
            if k == 0:
                return nid
            if is_const(nid):
                return new.scale(nid, 2.0**k)
            if owners[nid] != 1:
                return None
            node = new.nodes[nid]
            if node.op == "scale":
                return new.scale(node.args[0], node.scalar * 2.0**k)
            if node.op == "mul":
                a, b = node.args
                if is_const(a):
                    return new.mul(new.scale(a, 2.0**k), b)
                if is_const(b):
                    return new.mul(a, new.scale(b, 2.0**k))
            if node.op in ("real", "conj"):
                inner = absorb(node.args[0], k)
                if inner is not None:
                    return new.real(inner) if node.op == "real" else new.conj(inner)
            return None

        def add(a: int, ka: int, b: int, kb: int) -> Tuple[int, int]:
            if ka != kb:
                moved = absorb(a, ka - kb)
                if moved is not None:
                    a, ka = moved, kb
                else:
                    moved = absorb(b, kb - ka)
                    if moved is not None:
                        b, kb = moved, ka
                    else:
                        a, ka = new.scale(a, 2.0 ** (ka - kb)), kb
            if a == b:
                return a, ka + 1  # x + x == 2 * x
            return new.add(a, b), ka

        image: Dict[int, Tuple[int, int]] = {}
        for nid in needed:
            node = tape.nodes[nid]
            args = [image[arg][0] for arg in node.args]
            exps = [image[arg][1] for arg in node.args]
            op = node.op
            if op == "input":
                image[nid] = (new.input_(*node.key, dtype=node.dtype), 0)
            elif op == "zeros":
                image[nid] = (new.zeros(), 0)
            elif all(is_const(arg) for arg in args):
                # a constant subgraph, copied as traced
                if op == "scale":
                    image[nid] = (new.scale(args[0], node.scalar), 0)
                else:
                    image[nid] = (getattr(new, op)(*args), 0)
            elif op in ("half", "double"):
                image[nid] = (args[0], exps[0] + (1 if op == "double" else -1))
            elif op in ("conj", "real"):
                image[nid] = (getattr(new, op)(args[0]), exps[0])
            elif op == "scale":
                j = _power_of_two(node.scalar)
                if j is not None:
                    image[nid] = (args[0], exps[0] + j)
                else:
                    image[nid] = (new.scale(args[0], node.scalar * 2.0 ** exps[0]), 0)
            elif op == "mul":
                a, b = args
                k = exps[0] + exps[1]
                if k and is_const(a):
                    a, k = new.scale(a, 2.0**k), 0
                elif k and is_const(b):
                    b, k = new.scale(b, 2.0**k), 0
                image[nid] = (new.mul(a, b), k)
            elif op == "add":
                image[nid] = add(args[0], exps[0], args[1], exps[1])
            else:
                raise AssertionError(f"unexpected tape op {op!r}")
            result = image[nid][0]
            # an operand the result is (x + x, a power-of-two scaling)
            # loses the consumer the traced tape counted for it
            owners[result] += uses[nid] - sum(arg == result for arg in args)
        result, k = image[out]
        if k:
            moved = absorb(result, k)
            result = new.scale(result, 2.0**k) if moved is None else moved
        return new, result

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
        """Linearize runtime ops and assign liveness-reused buffer slots.

        A step may write over an operand it reads for the last time:
        every kernel is elementwise and reads each element before it
        writes it (``tests/test_stacking_identities.py`` pins that the
        in-place call equals the out-of-place one), so the block's
        working set is as small as its live values.
        """
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
            args = node.args
            step = _Step(node, -1, loc(args[0]), loc(args[1]) if len(args) > 1 else None)
            for arg in args:
                if arg in refs:
                    refs[arg] -= 1
                    if refs[arg] == 0 and arg != out:
                        free[tape.nodes[arg].dtype].append(slot_of[arg])
            pool = free[node.dtype]
            if pool:
                step.out_slot = pool.pop()
            else:
                step.out_slot = len(slot_dtype)
                slot_dtype.append(node.dtype)
            slot_of[nid] = step.out_slot
            steps.append(step)
        self.steps = steps
        self._slot_dtype = slot_dtype
        self._out_slot = slot_of.get(out)
        self._out_const = consts.get(out)

    # -- workspaces ----------------------------------------------------
    def _workspace(self, n: int) -> _Workspace:
        # one block-sized set per (thread, n): concurrent captures on a
        # shared program (thread executors) must not scribble over each
        # other's buffers, and every block of a lot reuses the set
        key = (threading.get_ident(), n)
        with self._workspace_lock:
            ws = self._workspaces.get(key)
            if ws is None:
                rows = block_rows(n)
                ws = _Workspace(
                    [
                        np.empty(
                            (rows, n),
                            dtype=np.complex128 if dt == "c" else np.float64,
                        )
                        for dt in self._slot_dtype
                    ]
                )
                self._workspaces[key] = ws
        return ws

    def _bind(self, ws: _Workspace, rows: int) -> tuple:
        """The op list of a ``rows``-row call over ``ws``.

        ``(ops, late, result)``: ``ops[i]`` is step ``i`` as ``(fn,
        args)`` over views of the buffers and the folded constants,
        ``late`` lists the steps that read a runtime input (bound on
        every call) and ``result`` is the output view.  The full-block
        list is kept with the workspace; a tail block's is built for
        its call only: keeping one list per tail size (~100 small
        objects each) raised the streaming workload's peak RSS by
        ~0.5 MB.
        """
        full = rows == len(ws.bufs[0]) if ws.bufs else False
        if full and ws.full is not None:
            return ws.full
        # tail blocks run over views of the block-sized workspace
        bufs = [buf[:rows] for buf in ws.bufs]

        def operand(src):
            if src is None:
                return None
            kind, ref = src
            if kind == "buf":
                return bufs[ref]
            if kind == "const":
                return self.consts[ref]
            return src  # a runtime input, bound per call

        ops: List[Optional[tuple]] = []
        late = []
        for i, step in enumerate(self.steps):
            a, b, out = operand(step.a), operand(step.b), bufs[step.out_slot]
            if isinstance(a, tuple) or isinstance(b, tuple):
                late.append((i, step.node, a, b, out))
                ops.append(None)
            else:
                ops.append(_bind_kernel(step.node, a, b, out))
        if self._out_slot is not None:
            result = bufs[self._out_slot]
        else:
            result = bufs[self.steps[-1].out_slot] if self.steps else None
        bound = (ops, late, result)
        if full:
            ws.full = bound
        return bound

    def nbytes(self) -> int:
        """Constant + workspace bytes retained by this program."""
        total = sum(arr.nbytes for arr in self.consts.values())
        with self._workspace_lock:
            for ws in self._workspaces.values():
                total += sum(buf.nbytes for buf in ws.bufs)
        return total

    def __getstate__(self):
        # workspaces and the op lists bound to them are cheap to
        # rebuild; the lock is recreated on unpickle
        state = self.__dict__.copy()
        state["_workspaces"] = {}
        del state["_workspace_lock"]
        return state

    def __setstate__(self, state):
        self.__dict__.update(state)
        self._workspace_lock = threading.Lock()

    # -- execution -----------------------------------------------------
    def execute(
        self,
        rf_envelopes: Dict[int, np.ndarray],
        lo_envelopes: Optional[Dict[int, np.ndarray]] = None,
    ) -> np.ndarray:
        """Run the tape; returns the real baseband ``(batch, n)`` matrix.

        ``rf_envelopes`` holds the DUT-output envelope arrays keyed by
        harmonic; ``lo_envelopes`` supplies the LO slots when they were
        not plan-bound (the random-path-phase regime).  The batch is one
        row block: at most :func:`block_rows` rows, run in one pass over
        the calling thread's block workspace with the op list bound to
        it (:meth:`_bind`; :func:`_apply_kernel` over the same steps is
        the oracle).  The returned array is a view of that workspace:
        consume it before this thread's next ``execute`` at the same
        record length.
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

        if batch > block_rows(n):
            raise ValueError(
                f"batch of {batch} rows exceeds one block of {block_rows(n)}"
            )
        ops, late, result = self._bind(self._workspace(n), batch)
        for i, node, a, b, out in late:
            if isinstance(a, tuple):
                a = inputs[a[1]]
            if isinstance(b, tuple):
                b = inputs[b[1]]
            ops[i] = _bind_kernel(node, a, b, out)
        for fn, args in ops:
            fn(*args)
        # the input-bound entries must not keep this block's inputs alive
        for entry in late:
            ops[entry[0]] = None
        return result
