"""Tree-clock happens-before engine for fork orderings.

The runtime representation of the section 4.1 fork clocks, after Mathur
et al., "A Tree Clock Data Structure for Causal Orderings in Concurrent
Executions" (PAPERS.md). The dict-based vector clocks of
:mod:`repro.core.vector_clock` are the paper's representation and the
reference the tests compare against.
The insight carried over here: when the happens-before relation is
induced *only* by thread forks (section 4.1 of the Waffle paper), each
thread's clock is fully described by

* its **own** live counter (bumped once per fork it performs), and
* a **frozen chain** of ``(ancestor tid, fork-time counter)`` entries --
  the path from the thread to the root of the fork tree.

The chain never changes after the thread is created, so a child can
share its parent's chain *by reference* and prepend a single node: clock
propagation at fork is O(1) instead of the O(depth) dict copy
``ThreadVectorClock.inherit_to`` performs, and capturing a per-event
timestamp (:meth:`ThreadTreeClock.stamp`) is O(1) instead of the
O(depth) dict materialization of ``snapshot()``.

Ordering queries exploit the tree shape directly.  For stamps ``a`` of
thread A and ``b`` of thread B:

* same thread -- always ordered (program order);
* ``depth(A) == depth(B)``, different threads -- never ordered (neither
  can be the other's ancestor);
* otherwise walk the deeper stamp's chain up to the shallower stamp's
  depth (the *direct-ancestry fast path* is a single hop; long walks
  take O(log) skip-pointer jumps, see :class:`_ChainNode`) and compare
  one ``(tid, counter)`` entry.

This answers ``ordered``/``concurrent`` in O(log |depth(A) - depth(B)|)
with no allocation, against O(chain) dict compares (plus an O(chain)
dict build per event) for vector clocks.  The two representations are
observationally equivalent: ``tests/core/test_tree_clock.py`` asserts
equal verdicts on every event pair of seeded random fork trees.
"""

from __future__ import annotations

from typing import Dict, ItemsView, Optional

from ..sim.tls import Inheritable


class _ChainNode:
    """One frozen ``(tid, counter)`` entry of an ancestor chain.

    ``depth`` is the ancestor's own depth in the fork tree (roots are
    0), so a descendant can jump straight to the node a query needs by
    walking while ``node.depth > target`` -- chains are strictly
    decreasing in depth, one per level.

    ``jump`` is a skip pointer (the classic jump-pointer scheme for
    purely functional lists): it points to the ancestor ``jump(jump(
    parent))`` when the two hops below it span equal depths, and to
    ``parent`` otherwise. Computed in O(1) at creation, it makes
    level-ancestor walks O(log depth difference) instead of O(depth
    difference) -- deep fork spines stay cheap to query.
    """

    __slots__ = ("tid", "value", "parent", "depth", "jump")

    def __init__(self, tid: int, value: int, parent: Optional["_ChainNode"], depth: int):
        self.tid = tid
        self.value = value
        self.parent = parent
        self.depth = depth
        jump = parent
        if parent is not None:
            pj = parent.jump
            if pj is not None and pj.jump is not None:
                if parent.depth - pj.depth == pj.depth - pj.jump.depth:
                    jump = pj.jump
        self.jump = jump

    def __repr__(self) -> str:
        return "_ChainNode(tid=%d, value=%d, depth=%d)" % (self.tid, self.value, self.depth)


class TreeClockStamp:
    """An O(1) frozen capture of one thread's tree clock at one event.

    The ``AccessEvent.vc_snapshot`` of a recorded event: the O(1)
    counterpart of a ``ThreadVectorClock.snapshot()`` dict.  ``mapping()``
    / ``items()`` materialize that dict on demand, in the same key order,
    so serializers and flight records write the same bytes for either.
    """

    __slots__ = ("tid", "own", "chain", "depth")

    def __init__(self, tid: int, own: int, chain: Optional[_ChainNode], depth: int):
        self.tid = tid
        self.own = own
        self.chain = chain
        self.depth = depth

    # -- Ordering -------------------------------------------------------

    def leq(self, other: "TreeClockStamp") -> bool:
        """Component-wise <=, computed from tree structure."""
        if self.tid == other.tid:
            return self.own <= other.own
        if self.depth >= other.depth:
            # An ancestor is strictly shallower than its descendants.
            return False
        node = other.chain
        target = self.depth
        while node is not None and node.depth > target:
            jump = node.jump
            node = jump if jump is not None and jump.depth >= target else node.parent
        if node is None or node.tid != self.tid:
            return False
        # ``node.value`` froze this thread's counter when it forked
        # toward ``other``; the stamp precedes everything ``other`` did
        # iff it was taken at or before that fork.
        return self.own <= node.value

    def ordered_with(self, other: "TreeClockStamp") -> bool:
        """True when the two stamps are fork-ordered either way."""
        if self.tid == other.tid:
            return True
        da = self.depth
        db = other.depth
        if da == db:
            return False
        if da < db:
            return self.leq(other)
        return other.leq(self)

    # -- Dict-compatible views -----------------------------------------

    def mapping(self) -> Dict[int, int]:
        """The equivalent ``{tid: counter}`` vector-clock dict.

        Keys run root-first with the own entry last, the order
        ``ThreadVectorClock.snapshot()`` builds, so a dumped clock is
        byte-identical under either representation.
        """
        chain = []
        node = self.chain
        while node is not None:
            chain.append(node)
            node = node.parent
        out: Dict[int, int] = {node.tid: node.value for node in reversed(chain)}
        out[self.tid] = self.own
        return out

    def items(self) -> ItemsView[int, int]:
        """Dict-shaped iteration, for serializers and flight records."""
        return self.mapping().items()

    def __repr__(self) -> str:
        return "TreeClockStamp(tid=%d, %r)" % (self.tid, self.mapping())


class ThreadTreeClock(Inheritable):
    """The per-thread tree clock stored in inheritable TLS.

    Implements the section 4.1 fork protocol of
    :class:`~repro.core.vector_clock.ThreadVectorClock` -- child copies
    the parent's pre-increment entries, appends its own ``(tid, 1)``
    entry, parent's counter is bumped -- but the "copy" is a shared
    reference plus one prepended chain node.
    """

    __slots__ = ("tid", "own", "chain", "depth")

    def __init__(self, tid: int, chain: Optional[_ChainNode] = None):
        self.tid = tid
        #: Live counter for this thread's own entry, bumped per fork.
        self.own = 1
        #: Frozen ancestor chain (None for root threads).
        self.chain = chain
        self.depth = 0 if chain is None else chain.depth + 1

    # -- Inheritable protocol ------------------------------------------

    def inherit_to(self, parent_thread, child_thread) -> "ThreadTreeClock":
        """O(1) clock propagation at thread fork."""
        node = _ChainNode(self.tid, self.own, self.chain, self.depth)
        child = ThreadTreeClock(child_thread.tid, chain=node)
        self.own += 1
        return child

    # -- Captures -------------------------------------------------------

    def stamp(self) -> TreeClockStamp:
        """O(1) frozen capture for ``AccessEvent.vc_snapshot``."""
        return TreeClockStamp(self.tid, self.own, self.chain, self.depth)

    def snapshot(self) -> Dict[int, int]:
        """Dict view matching ``ThreadVectorClock.snapshot()`` exactly."""
        return self.stamp().mapping()

    def capture(self):
        """The cheapest event-attachable representation (a stamp)."""
        return self.stamp()

    def __repr__(self) -> str:
        return "ThreadTreeClock(tid=%d, %r)" % (self.tid, self.snapshot())

