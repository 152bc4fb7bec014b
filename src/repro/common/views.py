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


class ScalarViews:
    """Mixin for objects with scalar views over their own arrays.

    ``_scalar_views`` maps each view attribute to the array attribute it
    aliases.  Call :meth:`_bind_scalar_views` once the arrays exist, and
    never rebind a viewed array afterwards: write into it in place
    (``a[:] = ...``, ``a += ...``) so that its view keeps aliasing it.
    """

    _scalar_views: dict[str, str] = {}

    def _bind_scalar_views(self) -> None:
        for view, array in self._scalar_views.items():
            setattr(self, view, memoryview(getattr(self, array)))

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for view in self._scalar_views:
            state.pop(view, None)
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind_scalar_views()


__all__ = ["ScalarViews"]
