"""VaultBench: the serving benchmark of record (see bench/README.md)."""
