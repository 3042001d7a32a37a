"""Orchestration: configuration, the run loop, report rendering and the CLI."""
