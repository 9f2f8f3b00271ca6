"""Cryptographic erasure for degradable values.

The paper requires that, once a degradation step has run, "the accurate state
cannot be recovered by anyone after this period, not even by the server".
Physically overwriting every copy (data store, indexes, log) is one way; the
classic alternative is *cryptographic erasure*: store the accurate value
encrypted under a key dedicated to its (record, attribute, state), and destroy
the key when the step fires — every remaining ciphertext copy instantly
becomes unreadable.

The :class:`KeyStore` implements that scheme with a stdlib-only stream cipher
(SHA-256 in counter mode).  This is a stand-in for AES-CTR: the point of the
reproduction is the *key lifecycle*, not cryptographic strength, and the
substitution is documented in DESIGN.md.
"""

from __future__ import annotations

import hashlib
import hmac
import os
import struct
from dataclasses import dataclass
from typing import Dict, Optional, Set, Tuple

from ..core.errors import CryptoError, KeyDestroyedError

#: Key identifiers are opaque tuples, typically ``(table, row_key, column, state)``.
KeyId = Tuple


@dataclass
class KeyStoreStats:
    keys_created: int = 0
    keys_destroyed: int = 0
    encryptions: int = 0
    decryptions: int = 0


class KeyStore:
    """Per-degradation-step key management with irreversible destruction."""

    def __init__(self, key_size: int = 32, deterministic_seed: Optional[bytes] = None) -> None:
        self.key_size = key_size
        self._keys: Dict[KeyId, bytes] = {}
        self._destroyed: Set[KeyId] = set()
        self._seed = deterministic_seed
        self._counter = 0
        self.stats = KeyStoreStats()

    # -- key lifecycle -------------------------------------------------------

    def create_key(self, key_id: KeyId) -> bytes:
        """Create (or return the existing) key for ``key_id``."""
        if key_id in self._destroyed:
            raise KeyDestroyedError(f"key {key_id!r} was destroyed and cannot be recreated")
        existing = self._keys.get(key_id)
        if existing is not None:
            return existing
        if self._seed is not None:
            self._counter += 1
            material = hmac.new(
                self._seed, repr(key_id).encode("utf-8") + struct.pack("<Q", self._counter),
                hashlib.sha256,
            ).digest()
            key = material[: self.key_size]
        else:
            key = os.urandom(self.key_size)
        self._keys[key_id] = key
        self.stats.keys_created += 1
        return key

    def has_key(self, key_id: KeyId) -> bool:
        return key_id in self._keys

    def is_destroyed(self, key_id: KeyId) -> bool:
        return key_id in self._destroyed

    def destroy_key(self, key_id: KeyId) -> bool:
        """Destroy the key irrecoverably.  Returns True if a key existed."""
        key = self._keys.pop(key_id, None)
        self._destroyed.add(key_id)
        if key is None:
            return False
        self.stats.keys_destroyed += 1
        return True

    def destroy_matching(self, prefix: Tuple) -> int:
        """Destroy every key whose id starts with ``prefix`` (e.g. all keys of a row)."""
        victims = [key_id for key_id in self._keys if key_id[: len(prefix)] == prefix]
        for key_id in victims:
            self.destroy_key(key_id)
        return len(victims)

    @property
    def live_key_count(self) -> int:
        return len(self._keys)

    # -- encryption ----------------------------------------------------------

    def _keystream(self, key: bytes, nonce: bytes, length: int) -> bytes:
        blocks = []
        counter = 0
        while sum(len(b) for b in blocks) < length:
            blocks.append(hashlib.sha256(key + nonce + struct.pack("<Q", counter)).digest())
            counter += 1
        return b"".join(blocks)[:length]

    def encrypt(self, key_id: KeyId, plaintext: bytes) -> bytes:
        """Encrypt ``plaintext`` under the key for ``key_id`` (created on demand)."""
        key = self.create_key(key_id)
        nonce = os.urandom(12) if self._seed is None else hashlib.sha256(
            key + struct.pack("<Q", self.stats.encryptions)
        ).digest()[:12]
        stream = self._keystream(key, nonce, len(plaintext))
        ciphertext = bytes(a ^ b for a, b in zip(plaintext, stream))
        self.stats.encryptions += 1
        return nonce + ciphertext

    def decrypt(self, key_id: KeyId, blob: bytes) -> bytes:
        """Decrypt ``blob``; raises :class:`KeyDestroyedError` after erasure."""
        if key_id in self._destroyed:
            raise KeyDestroyedError(
                f"key {key_id!r} was destroyed: the accurate value is unrecoverable"
            )
        key = self._keys.get(key_id)
        if key is None:
            raise CryptoError(f"no key for {key_id!r}")
        if len(blob) < 12:
            raise CryptoError("ciphertext too short")
        nonce, ciphertext = blob[:12], blob[12:]
        stream = self._keystream(key, nonce, len(ciphertext))
        self.stats.decryptions += 1
        return bytes(a ^ b for a, b in zip(ciphertext, stream))


__all__ = ["KeyStore", "KeyStoreStats", "KeyId"]
