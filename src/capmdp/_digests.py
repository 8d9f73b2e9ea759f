"""SHA-256 and BLAKE2b from CPython's own hash modules.

hashlib maps OpenSSL's libcrypto (about 3.4 MB of RSS) when it is imported,
and a fruit-forage run needs no other part of it. CPython builds both
digests without OpenSSL: SHA-256 in _sha2 (3.12+) or _sha256 (3.10-3.11),
BLAKE2b in _blake2. A build without the SHA-256 module takes hashlib's,
which gives the same bytes. hashlib's own blake2b is _blake2's, so a build
without _blake2 digests solve keys, which live only in memory, by SHA-256.
"""

try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

try:
    from _blake2 import blake2b
except ImportError:
    blake2b = sha256

__all__ = ["blake2b", "sha256"]
