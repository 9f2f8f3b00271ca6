"""Transaction substrate: 2PL locking, transaction manager, degradation-aware recovery."""

from .locks import LockManager, LockMode, LockStats
from .recovery import RecoveryManager, RecoveryReport
from .transaction import (
    Transaction,
    TransactionManager,
    TransactionState,
    TransactionStats,
)

__all__ = [
    "LockManager", "LockMode", "LockStats",
    "Transaction", "TransactionManager", "TransactionState", "TransactionStats",
    "RecoveryManager", "RecoveryReport",
]
