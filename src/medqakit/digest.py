"""SHA-256 and SHA-1 of short inputs, without loading OpenSSL.

`import hashlib` maps OpenSSL's libcrypto into the process, about 3.6 MB
of peak RSS on Linux, and medqakit hashes only a few hundred bytes per
command: the run config, split seeds and review pair ids. These come from
the SHA modules built into CPython instead, the way `random.py` gets its
SHA-512. They hash about eight times slower than OpenSSL (a 480-byte
config in 3.7 us against 1.3 us on CPython 3.11, x86-64), so they suit
short inputs only: bulk hashing of files or datasets must import `hashlib`
where it hashes.
"""

from __future__ import annotations

import importlib


def _constructor(name: str, modules: tuple[str, ...]):
    """`name` from the first of `modules` this interpreter has, else from hashlib."""
    for module in modules:
        try:
            return getattr(importlib.import_module(module), name)
        except ImportError:
            pass
    return getattr(importlib.import_module("hashlib"), name)


# _sha2 from Python 3.12; _sha256 and _sha1 on 3.10 and 3.11
sha256 = _constructor("sha256", ("_sha2", "_sha256"))
sha1 = _constructor("sha1", ("_sha1",))
