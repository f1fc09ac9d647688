"""Reference implementations that pin the production paths in ``src/``.

Each oracle is the straightforward (slow) version of an optimised code path.
Equivalence tests compare the production path against it field for field,
and the slow benchmark suite uses it as the baseline of its speed gates.
"""
