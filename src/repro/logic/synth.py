"""Synthesis of minimised covers into netlist gates.

Multi-output decoders (like the CAS switch-control decoder) share many
product terms and sub-products; this module performs lightweight
multi-level sharing: every AND/OR node is built as a left-deep tree over
canonically sorted operands and cached, so common prefixes are
instantiated once across *all* outputs.  This is the main reason the
generated CAS decoder tracks the paper's synthesised gate counts rather
than the naive one-hot decode size.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from repro.errors import SynthesisError
from repro.logic.cover import Cover
from repro.logic.cube import Cube
from repro.netlist.netlist import Netlist


class CoverSynthesizer:
    """Emit gates for covers over a shared set of input nets.

    All covers passed to :meth:`synthesize` must be over the same
    ``num_vars`` input variables, bound positionally to ``input_nets``.
    Input inversions, product terms and every intermediate AND2/OR2
    node are cached and shared across outputs.
    """

    def __init__(self, netlist: Netlist, input_nets: Sequence[str]) -> None:
        self.netlist = netlist
        self.input_nets = list(input_nets)
        self._inverted: dict[int, str] = {}
        # (op, left_net, right_net) -> output net, operands sorted.
        self._node_cache: dict[tuple[str, str, str], str] = {}

    def synthesize(self, cover: Cover, output_net: str) -> str:
        """Emit gates computing ``cover`` onto ``output_net``.

        Returns the output net name.  Constant covers become CONST cells.
        """
        if cover.num_vars != len(self.input_nets):
            raise SynthesisError(
                f"cover has {cover.num_vars} vars, "
                f"synthesizer bound to {len(self.input_nets)} nets"
            )
        if cover.is_constant_false():
            self.netlist.add_gate("CONST0", (), output_net)
            return output_net
        if cover.is_constant_true():
            self.netlist.add_gate("CONST1", (), output_net)
            return output_net
        term_nets = [self._product_term(cube) for cube in cover.cubes]
        result = self._tree("OR", term_nets)
        self.netlist.add_gate("BUF", (result,), output_net)
        return output_net

    # -- internals -------------------------------------------------------

    def _product_term(self, cube: Cube) -> str:
        literals: list[str] = []
        for index, net in enumerate(self.input_nets):
            bit = 1 << index
            if not cube.mask & bit:
                continue
            if cube.value & bit:
                literals.append(net)
            else:
                literals.append(self._inverted_input(index))
        if not literals:
            raise SynthesisError("universe cube reached product-term emission")
        return self._tree("AND", literals)

    def _tree(self, op: str, nets: list[str]) -> str:
        """Left-deep tree over canonically sorted operands, cached.

        Sorting makes shared prefixes structural, so two product terms
        differing only in their last literal share all but one gate.
        """
        ordered = sorted(set(nets))
        current = ordered[0]
        for net in ordered[1:]:
            current = self._node(op, current, net)
        return current

    def _node(self, op: str, a: str, b: str) -> str:
        left, right = (a, b) if a <= b else (b, a)
        key = (op, left, right)
        cached = self._node_cache.get(key)
        if cached is not None:
            return cached
        out = self.netlist.fresh_net("g")
        self.netlist.add_gate(op, (left, right), out)
        self._node_cache[key] = out
        return out

    def _inverted_input(self, index: int) -> str:
        cached = self._inverted.get(index)
        if cached is not None:
            return cached
        source = self.input_nets[index]
        inv_net = self.netlist.fresh_net(f"{source}_n")
        self.netlist.add_gate("INV", (source,), inv_net)
        self._inverted[index] = inv_net
        return inv_net


def synthesize_covers(
    netlist: Netlist,
    input_nets: Sequence[str],
    covers: Mapping[str, Cover],
) -> dict[str, str]:
    """Convenience wrapper: synthesise several named covers at once.

    Returns a mapping from cover name to its output net (same as the
    key, provided for symmetry with callers that rename nets).
    """
    synthesizer = CoverSynthesizer(netlist, input_nets)
    result = {}
    for output_net, cover in covers.items():
        result[output_net] = synthesizer.synthesize(cover, output_net)
    return result
