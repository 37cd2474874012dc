"""Empty: ``Orbit`` and ``orbit_of`` live in ``reference``, ``tuple_values``
in ``confidence``.

The module stays importable only because the benchmark's traced mode
(``bench/tracer.py``) loads every layer it lists by name, ``orbits`` among
them. Delete it with that entry.
"""
