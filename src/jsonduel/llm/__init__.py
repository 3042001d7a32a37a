"""Prompting protocol: summarization, mutation rules, context assembly,
chat transport, and deterministic offline mocks."""
