"""Import path kept for :func:`resolve_workers`.

The worker-count resolver and the one process pool both live in
:mod:`repro.runner.backends`; fan out through
:func:`~repro.runner.backends.resolve_backend`.
"""

from repro.runner.backends import resolve_workers

__all__ = ["resolve_workers"]
