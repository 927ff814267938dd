"""Test helper: one fabric message, issued now."""


def _delivered(_token):
    pass


def _dropped(_token, error):
    raise error


def send(fabric, src, dst, nbytes):
    """Issue ``nbytes`` src->dst now through :meth:`Fabric.issue`.

    A dropped message's :class:`~repro.faults.errors.TransferError`
    raises out of the step that drops it.
    """
    fabric.issue(src, dst, nbytes, _delivered, None, on_fail=_dropped)
