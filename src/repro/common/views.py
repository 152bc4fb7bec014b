"""Scalar views: ``memoryview`` aliases of NumPy arrays for per-element
hot paths.

Indexing a NumPy array with one integer builds a NumPy scalar; a
``memoryview`` over the same buffer reads and writes plain Python ints
at about a third of the cost.  Vectorised code keeps using the arrays,
per-element code uses the views, and both see every write because they
share one buffer.  A view cannot be pickled, and nothing pickles these
objects: a fleet checkpoint holds finished volume reports, not stores.
"""

from __future__ import annotations


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


__all__ = ["ScalarViews"]
