"""The frozen Phase 1 forwarding rule: what an honest relay sends.

DC3 in ``repro.core.phase3_dispute`` checks every relay's Phase 1 forwards
inline, against the symbol the relay claims to have received.  This module
keeps the per-node statement of the same rule, verbatim from ``src/``, so
``tests/test_core_phases.py`` can hold a Phase 1 transcript to it.  Don't
optimise it.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.core.phase1_broadcast import Phase1Transcript
from repro.types import NodeId


def expected_forward_symbols(
    transcript: Phase1Transcript, node: NodeId
) -> Dict[Tuple[int, NodeId, NodeId], int]:
    """What an honest ``node`` should have sent given what it received (for DC3).

    For each tree, an honest relay forwards to each child exactly the symbol it
    received from its parent; an honest source sends the symbols derived from
    its (broadcast) input.
    """
    expected: Dict[Tuple[int, NodeId, NodeId], int] = {}
    for tree_index, tree in enumerate(transcript.trees):
        if node == tree.root:
            continue
        if node not in tree.parents:
            continue
        received = transcript.received_symbols.get((tree_index, node), 0)
        for child in tree.children_of(node):
            expected[(tree_index, node, child)] = received
    return expected
