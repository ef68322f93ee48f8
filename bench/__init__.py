"""The two-clock layered benchmark (see bench/README.md)."""
