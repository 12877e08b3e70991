"""Bit-column sparsity toolkit for int8 weight tensors.

The library API is the submodules (`bitcol.codec`, `bitcol.bitflip`,
`bitcol.engine`, `bitcol.mapper`, `bitcol.model_io`, `bitcol.perf`,
`bitcol.workload`); the package root exports nothing, so `import bitcol`
loads none of them.

Records that validate nothing are typing.NamedTuple classes, which are
cheaper than dataclasses to create at import. As tuples they are iterable,
equal to a plain tuple of the same values, and cannot be modified.
"""

__version__ = "0.1.0"
