"""Scalar views: ``memoryview`` aliases of NumPy arrays for per-element
hot paths.

Indexing a NumPy array with one integer builds a NumPy scalar; a
``memoryview`` over the same buffer reads and writes plain Python ints
at about a third of the cost.  Vectorised code keeps using the arrays,
per-element code uses the views, and both see every write because they
share one buffer.  A view cannot be pickled, and a pickled copy of one
would no longer alias its array, so :class:`ScalarViews` drops the views
from the pickled state and rebinds them on load.
"""

from __future__ import annotations

from typing import Any


def slot_state(obj: Any) -> dict[str, Any]:
    """``obj``'s set slots by name, base classes' first: what pickling a
    slotted object stores, as ``vars`` shows an object's ``__dict__``."""
    return {name: getattr(obj, name)
            for cls in reversed(type(obj).__mro__)
            for name in cls.__dict__.get("__slots__", ())
            if hasattr(obj, name)}


class ScalarViews:
    """Mixin for slotted objects with scalar views over their own arrays.

    ``_scalar_views`` maps each view slot to the array slot it aliases.
    Call :meth:`_bind_scalar_views` once the arrays exist, and never
    rebind a viewed array afterwards: write into it in place
    (``a[:] = ...``, ``a += ...``) so that its view keeps aliasing it.
    """

    __slots__ = ()

    _scalar_views: dict[str, str] = {}

    def _bind_scalar_views(self) -> None:
        for view, array in self._scalar_views.items():
            setattr(self, view, memoryview(getattr(self, array)))

    def __getstate__(self) -> dict:
        state = slot_state(self)
        for view in self._scalar_views:
            state.pop(view, None)
        return state

    def __setstate__(self, state: dict) -> None:
        for name, value in state.items():
            setattr(self, name, value)
        self._bind_scalar_views()


__all__ = ["ScalarViews", "slot_state"]
