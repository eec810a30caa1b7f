"""The bnquery benchmark harness; see README.md."""
