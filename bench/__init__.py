"""Benchmark for the mobile-commerce simulator; see ``bench/README.md``."""
