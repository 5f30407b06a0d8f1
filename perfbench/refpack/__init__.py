"""A frozen snapshot of tupack's solver, the benchmark's speed reference.

``geometry``, ``lowerbound``, ``generator``, ``packer`` and ``search`` are
byte-for-byte copies of ``src/tupack`` at commit f26e5d8. They must never be
edited: the benchmark times one pinned solve with them next to the workload
and scales its times by how fast that solve ran (see ``speed.py``). Because
this code does not follow changes to ``src/tupack``, a change to the solver
moves the measured times and a change in the host's speed does not.
``test_perfbench.py`` checks the snapshot's hash.
"""
