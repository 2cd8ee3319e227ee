"""Vectorized batch kernel: thousands of scenarios per dispatch.

The compiled kernel (:mod:`repro.sim.kernel`) made a *single* session
fast, but every many-scenario consumer -- fault-dictionary builds,
Monte-Carlo defect sweeps, campaign ``run_many`` -- still dispatched
sessions one at a time through Python loops, so throughput was bounded
by interpreter overhead.  This module removes that bound for the hot
path (scan-test capture): one compiled program geometry plus N scenario
variants are lowered into numpy ``uint64`` arrays and executed as whole
array operations, one dispatch per shift window instead of one per
scenario.

Layout.  A :class:`BatchScanProgram` packs a spec's ATPG stimulus into
an ``(inputs, words)`` array -- word ``w`` holds patterns
``w*64 .. w*64+63``, exactly the packing of
:func:`repro.scan.fault_sim.pack_patterns` -- together with the clean
(golden) capture words and the scan-out coordinates of every cloud
output.  A batch of F scenario faults is evaluated on the column grid
``F x words``: column ``i*words + w`` is fault ``i`` under pattern word
``w``, the per-fault stuck value forced onto its column range by
:func:`evaluate_cloud_array`.  Mismatch counts and syndrome masks then
fall out of ``xor`` / ``and`` / popcount array ops:

* per-fault mismatches = ``popcount((faulty ^ golden) & mask)`` summed
  over outputs and words -- valid because a clean instance's captures
  are, bit for bit, the ATPG responses the expected streams were
  compiled from, and input-cell (don't-care) positions never enter the
  output arrays at all;
* syndrome masks place a mismatching output bit of pattern ``p`` at
  scan-out offset ``out_offset[o]`` of chain ``out_chain[o]`` in window
  ``p`` -- the same packing the legacy backend emits byte-identically.

Entry points, innermost to outermost:

* :func:`evaluate_cloud_array` -- the vectorized twin of
  :meth:`repro.scan.core_model.CombCloud.evaluate_words`;
* :func:`scan_fault_failing_sets` -- per-fault failing ``(pattern,
  output)`` sets, the fault-dictionary builder's inner loop;
* :func:`_scan_fault_results` -- per-fault mismatch counts and
  syndrome masks, the faulty-scan branch of the compiled kernel's
  scan driver (:mod:`repro.sim.kernel`);
* :func:`scenario_overlay` -- one scenario as a ``core path ->
  stuck-at`` overlay, or ``None`` for the transport defects the
  kernel premise excludes.

Running a plan over N scenarios is
:meth:`repro.sim.session.SessionExecutor.run_batch`: the compiled
kernel runs every stuck-at overlay on one shared instance, each
driver once per distinct per-core fault; every other scenario runs on
a fresh system of its own.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.scan.core_model import CombCloud
from repro.scan.fault_sim import WORD_WIDTH, pack_patterns
from repro.obs.metrics import histogram as obs_histogram
from repro.obs.timing import stopwatch
from repro.soc.core import CoreSpec
from repro.sim.cache import BoundedCache
from repro.sim.kernel import _scan_program, _ScanProgram
from repro.wrapper.wrapper import P1500Wrapper

_U64 = np.uint64

#: Cap on simultaneously evaluated columns (faults x pattern words) of
#: one dispatch.  Bounds the working set of the node-value array to
#: roughly ``num_nodes * _MAX_COLUMNS * 8`` bytes, so dictionary builds
#: over thousands of faults stream in constant memory.
_MAX_COLUMNS = 4096


# -- popcount -----------------------------------------------------------------


_M1 = _U64(0x5555555555555555)
_M2 = _U64(0x3333333333333333)
_M4 = _U64(0x0F0F0F0F0F0F0F0F)
_H01 = _U64(0x0101010101010101)


def _popcount_words_swar(words: np.ndarray) -> np.ndarray:
    """Per-element population count (SWAR bit-twiddling).

    The numpy < 2.0 fallback; kept unconditionally defined so the
    test suite pins it against ``np.bitwise_count`` wherever the
    native ufunc exists.
    """
    x = words.astype(_U64, copy=True)
    x -= (x >> _U64(1)) & _M1
    x = (x & _M2) + ((x >> _U64(2)) & _M2)
    x = (x + (x >> _U64(4))) & _M4
    return ((x * _H01) >> _U64(56)).astype(np.int64)


if hasattr(np, "bitwise_count"):  # numpy >= 2.0

    def _popcount_words(words: np.ndarray) -> np.ndarray:
        """Per-element population count of a ``uint64`` array."""
        return np.bitwise_count(words).astype(np.int64)

else:  # pragma: no cover - exercised only on numpy < 2.0
    _popcount_words = _popcount_words_swar


# -- vectorized cloud evaluation ----------------------------------------------


def evaluate_cloud_array(
    cloud: CombCloud,
    inputs: np.ndarray,
    mask: np.ndarray,
    overrides: "Mapping[int, tuple[np.ndarray, np.ndarray]] | None" = None,
) -> np.ndarray:
    """Array twin of :meth:`~repro.scan.core_model.CombCloud.evaluate_words`.

    Args:
        inputs: ``(num_inputs, columns)`` ``uint64`` words -- each
            column is an independent evaluation (bit ``v`` = pattern v).
        mask: ``(columns,)`` pattern masks, for complementation.
        overrides: stuck-at forcing, ``node -> (column_indices,
            forced_words)``.  Input-node overrides apply before the op
            loop, op-node overrides after the node computes -- the
            exact semantics of the scalar evaluator's single ``fault``.

    Returns:
        ``(num_outputs, columns)`` output-node words.
    """
    if inputs.shape[0] != cloud.num_inputs:
        raise SimulationError(
            f"cloud has {cloud.num_inputs} inputs, got {inputs.shape[0]}"
        )
    columns = inputs.shape[1]
    values = np.empty((cloud.num_nodes, columns), dtype=_U64)
    values[: cloud.num_inputs] = inputs
    if overrides:
        for node, (cols, forced) in overrides.items():
            if node < cloud.num_inputs:
                values[node, cols] = forced
    base = cloud.num_inputs
    for index, op in enumerate(cloud.ops):
        node_id = base + index
        a = values[op.a]
        if op.op == "AND":
            out = a & values[op.b]
        elif op.op == "OR":
            out = a | values[op.b]
        elif op.op == "XOR":
            out = a ^ values[op.b]
        elif op.op == "NAND":
            out = ~(a & values[op.b]) & mask
        elif op.op == "NOR":
            out = ~(a | values[op.b]) & mask
        elif op.op == "NOT":
            out = ~a & mask
        else:  # BUF
            out = a
        values[node_id] = out
        if overrides:
            override = overrides.get(node_id)
            if override is not None:
                cols, forced = override
                values[node_id, cols] = forced
    return values[cloud.outputs]


# -- batch scan programs ------------------------------------------------------


@dataclass(frozen=True)
class BatchScanProgram:
    """A spec's scan test lowered to arrays, pure function of the spec.

    ``inputs[i, w]`` packs patterns ``w*64 .. w*64+63`` at cloud input
    ``i`` (:func:`~repro.scan.fault_sim.pack_patterns` packing);
    ``golden`` holds the clean capture words; ``out_chain[o]`` /
    ``out_offset[o]`` are the wrapper chain and scan-out bit offset at
    which cloud output ``o`` emerges -- the coordinates syndrome masks
    are keyed by.
    """

    spec: CoreSpec
    cloud: CombCloud
    num_patterns: int
    words: int
    inputs: np.ndarray
    masks: np.ndarray
    golden: np.ndarray
    out_chain: tuple[int, ...]
    out_offset: tuple[int, ...]
    scalar: _ScanProgram


#: LRU-bounded like the scalar program cache it parallels.
MAX_CACHED_BATCH_PROGRAMS = 1024

_BATCH_PROGRAMS: "BoundedCache[CoreSpec, BatchScanProgram]" = BoundedCache(
    MAX_CACHED_BATCH_PROGRAMS, name="batch_programs"
)


def batch_scan_program(
    spec: CoreSpec, wrapper: "P1500Wrapper | None" = None
) -> BatchScanProgram:
    """The (cached) batch program of a scan core spec."""
    cached = _BATCH_PROGRAMS.get(spec)
    if cached is not None:
        return cached
    if wrapper is None:
        wrapper = P1500Wrapper(spec.build_scannable())
    core = wrapper.core
    assert core is not None
    scalar = _scan_program(spec, wrapper)
    batches = pack_patterns(core, scalar.test_set.patterns)
    words = len(batches)
    num_inputs = core.cloud.num_inputs
    inputs = np.array(
        [[batch.input_words[i] for batch in batches]
         for i in range(num_inputs)],
        dtype=_U64,
    ).reshape(num_inputs, words)
    masks = np.array([batch.mask for batch in batches], dtype=_U64)
    golden = (
        evaluate_cloud_array(core.cloud, inputs, masks)
        if words
        else np.zeros((len(core.cloud.outputs), 0), dtype=_U64)
    )
    num_outputs = core.num_ffs + core.num_pos
    out_chain = [0] * num_outputs
    out_offset = [0] * num_outputs
    for chain, geo in enumerate(scalar.geometries):
        num_in = len(geo.in_pi)
        length = geo.length
        for position, ff in enumerate(geo.ff_ids):
            out_chain[ff] = chain
            out_offset[ff] = length - 1 - num_in - position
        po_base = num_in + len(geo.ff_ids)
        for position, po in enumerate(geo.out_po):
            out_chain[core.num_ffs + po] = chain
            out_offset[core.num_ffs + po] = length - 1 - po_base - position
    program = BatchScanProgram(
        spec=spec,
        cloud=core.cloud,
        num_patterns=scalar.num_patterns,
        words=words,
        inputs=inputs,
        masks=masks,
        golden=golden,
        out_chain=tuple(out_chain),
        out_offset=tuple(out_offset),
        scalar=scalar,
    )
    _BATCH_PROGRAMS.put(spec, program)
    return program


def clear_batch_cache() -> None:
    """Drop cached batch programs (tests, memory-sensitive callers)."""
    _BATCH_PROGRAMS.clear()


def _fault_chunks(
    program: BatchScanProgram,
    faults: Sequence[tuple[int, int]],
) -> "Iterable[tuple[int, int, np.ndarray]]":
    """Evaluate ``faults`` in column-bounded chunks.

    Yields ``(start, count, diff)`` where ``diff[o, i, w]`` is the
    masked golden-vs-faulty xor of output ``o``, fault ``start + i``,
    pattern word ``w`` -- one array dispatch per chunk.
    """
    words = program.words
    chunk = max(1, _MAX_COLUMNS // max(1, words))
    num_outputs = program.golden.shape[0]
    for start in range(0, len(faults), chunk):
        group = faults[start:start + chunk]
        count = len(group)
        inputs = np.tile(program.inputs, (1, count))
        mask_cols = np.tile(program.masks, count)
        zeros = np.zeros(words, dtype=_U64)
        per_node: "dict[int, tuple[list, list]]" = {}
        for index, (node, stuck) in enumerate(group):
            cols = np.arange(index * words, (index + 1) * words,
                             dtype=np.intp)
            lists = per_node.setdefault(node, ([], []))
            lists[0].append(cols)
            lists[1].append(program.masks if stuck else zeros)
        overrides = {
            node: (np.concatenate(cols), np.concatenate(forced))
            for node, (cols, forced) in per_node.items()
        }
        out = evaluate_cloud_array(
            program.cloud, inputs, mask_cols, overrides
        )
        diff = (
            out.reshape(num_outputs, count, words)
            ^ program.golden[:, None, :]
        ) & program.masks[None, None, :]
        yield start, count, diff


def _scan_fault_results(
    program: BatchScanProgram,
    faults: Sequence[tuple[int, int]],
    *,
    capture: bool = False,
) -> "list[tuple[int, dict[tuple[int, int], int]]]":
    """Per-fault ``(mismatches, syndrome_masks)`` over the pattern set.

    The masks dict is empty unless ``capture`` -- its keys/packing are
    byte-identical to the legacy backend's per-cycle syndrome capture.
    """
    results: "list[tuple[int, dict[tuple[int, int], int]]]" = []
    if program.words == 0:
        return [(0, {}) for _ in faults]
    for _, count, diff in _fault_chunks(program, faults):
        watch = stopwatch()
        counts = _popcount_words(diff).sum(axis=(0, 2))
        obs_histogram("batch.popcount_s").observe(watch.elapsed)
        for index in range(count):
            masks: "dict[tuple[int, int], int]" = {}
            if capture and counts[index]:
                masks = _syndrome_masks(program, diff[:, index, :])
            results.append((int(counts[index]), masks))
    return results


def _syndrome_masks(
    program: BatchScanProgram, diff: np.ndarray
) -> "dict[tuple[int, int], int]":
    """One fault's ``(window, chain) -> mask`` syndrome accumulation."""
    masks: "dict[tuple[int, int], int]" = {}
    out_idx, word_idx = np.nonzero(diff)
    for output, word_i in zip(out_idx.tolist(), word_idx.tolist()):
        word = int(diff[output, word_i])
        chain = program.out_chain[output]
        offset_bit = 1 << program.out_offset[output]
        base = word_i * WORD_WIDTH
        while word:
            bit = (word & -word).bit_length() - 1
            key = (base + bit, chain)
            masks[key] = masks.get(key, 0) | offset_bit
            word &= word - 1
    return masks


def scan_fault_failing_sets(
    spec: CoreSpec,
    faults: Sequence[tuple[int, int]],
) -> "list[set[tuple[int, int]]]":
    """Per-fault failing ``(pattern, output)`` positions, batched.

    The fault-dictionary builder's inner loop
    (:func:`repro.diagnose.engine._scan_dictionary`): coordinates match
    :func:`repro.diagnose.engine.decode_scan_syndrome` exactly.
    """
    program = batch_scan_program(spec)
    sets: "list[set[tuple[int, int]]]" = [set() for _ in faults]
    if program.words == 0:
        return sets
    for start, count, diff in _fault_chunks(program, faults):
        # Two-stage extraction keeps the dense scan at word granularity
        # (mismatch words are sparse) and unpacks only nonzero words.
        out_idx, fault_idx, word_idx = np.nonzero(diff)
        if not out_idx.size:
            continue
        words = diff[out_idx, fault_idx, word_idx]
        bits = np.unpackbits(
            words[:, None].view(np.uint8), axis=-1, bitorder="little"
        )
        rows, offsets = np.nonzero(bits)
        patterns = word_idx[rows] * WORD_WIDTH + offsets
        for pattern, output, fault_i in zip(
            patterns.tolist(), out_idx[rows].tolist(),
            fault_idx[rows].tolist(),
        ):
            sets[start + fault_i].add((pattern, output))
    return sets


# -- scenarios ----------------------------------------------------------------


def scenario_overlay(scenario) -> "dict[str, tuple[int, int]] | None":
    """Normalise one scenario to a ``core path -> stuck-at`` overlay.

    Accepted scenario forms: ``None`` (clean instance), a mapping in
    :func:`repro.sim.system.build_system` ``inject_faults`` style, or a
    :class:`~repro.diagnose.inject.DefectScenario`.  Returns ``None``
    for transport defects (broken wires, dead cells) -- those violate
    the kernel premise and must fall back to per-scenario execution.
    """
    from repro.diagnose.inject import KIND_STUCK_AT, DefectScenario

    if scenario is None:
        return {}
    if isinstance(scenario, DefectScenario):
        if scenario.kind != KIND_STUCK_AT:
            return None
        assert scenario.core is not None and scenario.fault is not None
        return {scenario.core: scenario.fault}
    if isinstance(scenario, Mapping):
        return {
            str(path): (int(node), int(stuck))
            for path, (node, stuck) in scenario.items()
        }
    raise ConfigurationError(
        f"cannot interpret scenario {scenario!r}; expected None, a "
        f"fault mapping, or a DefectScenario"
    )
