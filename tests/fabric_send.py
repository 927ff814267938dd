"""Test helper: one fabric message as an event a process can wait on."""


def send(fabric, src, dst, nbytes):
    """Issue ``nbytes`` src->dst now through :meth:`Fabric.issue`.

    The returned event fires at the delivery instant, or fails with the
    :class:`~repro.faults.errors.TransferError` of a dropped message.
    """
    done = fabric.env.event()
    fabric.issue(src, dst, nbytes, done.succeed, None,
                 on_fail=lambda _token, error: done.fail(error))
    return done
