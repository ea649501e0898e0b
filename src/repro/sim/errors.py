"""Exception types raised by the concurrency simulator.

The exception hierarchy mirrors the failure modes of the managed runtime
that the paper instruments: ``NullReferenceError`` corresponds to .NET's
``NullReferenceException`` -- the oracle Waffle uses to report MemOrder
bugs (paper section 5, "Waffle reports a bug only when the target binary
raises a NULL reference exception").
"""

from __future__ import annotations


class SimulationError(Exception):
    """Base class for all simulator-raised errors."""


class NullReferenceError(SimulationError):
    """A member access went through a null reference.

    This is the manifestation of a MemOrder bug: either a use executed
    before the reference was initialized (use-before-initialization), or
    after it was disposed (use-after-free).
    """

    def __init__(self, message, location=None, ref_name=None, thread_name=None):
        super().__init__(message)
        #: Static location (``Location``) of the faulting access, if known.
        self.location = location
        #: Name of the reference slot that was null.
        self.ref_name = ref_name
        #: Name of the thread that performed the faulting access.
        self.thread_name = thread_name


class ObjectDisposedError(NullReferenceError):
    """A member access targeted an object that was explicitly disposed.

    Subclassing :class:`NullReferenceError` keeps the detection oracle
    uniform: both flavors of MemOrder bug manifest as a null-reference
    failure, exactly as in the paper's C# targets where a disposed object
    either nulls its backing field or throws on use.
    """


class DeadlockError(SimulationError):
    """No thread is runnable but some threads are still blocked."""

    def __init__(self, message, blocked_threads=()):
        super().__init__(message)
        self.blocked_threads = list(blocked_threads)


class SimulationTimeout(SimulationError):
    """The virtual clock exceeded the configured time limit."""

    def __init__(self, message, virtual_time=0.0):
        super().__init__(message)
        self.virtual_time = virtual_time
