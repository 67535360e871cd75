"""Synthesize Java method implementations from signatures and I/O test cases."""
